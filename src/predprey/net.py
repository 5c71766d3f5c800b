"""Dense actor-critic network with hand-written reverse-mode gradients.

The network is a tanh MLP trunk shared by two linear heads: a policy head
emitting categorical logits over the joint action space and a scalar value
head. All math is float64 numpy, so forward/backward are bit-deterministic
for identical inputs within a process.

Parameter order everywhere (gradients, Adam moments, checkpoints) is:
trunk layer 0 (W, b), trunk layer 1 (W, b), ..., policy head (W, b),
value head (W, b). The net keeps them as one C-contiguous float64 vector in
that order, and every weight matrix and bias vector is a view into it, so a
fresh net and a loaded one have the same memory layout and give the same
bits. Weight matrices are (fan_in, fan_out), applied as ``h @ W + b``.

The vector starts on a 64-byte boundary. OpenBLAS's small-matrix dgemm reads
the weight rows straight from memory: with the rows 16 or 48 bytes off a cache
line, a stacked (50, 6, 128) @ (128, 128) took 310 us against 170 us aligned
(2-core x86-64 host, one BLAS thread), while 1,024-row products took the same
time at any offset. The bits are the same at every offset. A lockstep batch of worlds keeps its (W, n_prey, obs_dim) leading axes
in the matmuls rather than flattening them to one 2-D product: numpy then
runs one product per world, so each world's rows give the bits they give on
their own, and the N = 1 value head goes through gemv, whose bits depend on
the row count.
"""

from __future__ import annotations

import csv
import math
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import CheckpointError, InputError, NumericsError, StructuralError

CHECKPOINT_TAG = b"PPACNET\x00"
CHECKPOINT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_ALIGN_BYTES = 64  # one cache line


def _weight_shapes(layer_sizes: list[int]) -> list[tuple[int, int]]:
    """(fan_in, fan_out) per layer: hidden chain, then the two heads off the last trunk width."""
    trunk = layer_sizes[:-2]
    return list(zip(trunk[:-1], trunk[1:])) + [(trunk[-1], layer_sizes[-2]), (trunk[-1], 1)]


def param_count(layer_sizes: list[int]) -> int:
    """Length of the parameter vector of a net with these layer sizes; StructuralError if none can have them."""
    if len(layer_sizes) < 3 or layer_sizes[-1] != 1 or any(s <= 0 for s in layer_sizes):
        raise StructuralError(
            f"layer_sizes must be at least (input, policy, value) positive widths with value width 1, "
            f"got {list(layer_sizes)}"
        )
    return sum(rows * cols + cols for rows, cols in _weight_shapes(layer_sizes))


def _layer_views(flat: np.ndarray, layer_sizes: list[int]) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """(weights, biases): per-layer views into a vector laid out in canonical parameter order."""
    weights, biases, i = [], [], 0
    for rows, cols in _weight_shapes(layer_sizes):
        weights.append(flat[i : i + rows * cols].reshape(rows, cols))
        i += rows * cols
        biases.append(flat[i : i + cols])
        i += cols
    return tuple(weights), tuple(biases)


class DenseNet:
    """Shared-trunk actor-critic parameters.

    layer_sizes lists every dimension in order: input, each hidden width,
    the policy head width, and finally 1 for the value head. A net with no
    hidden layers (len == 3) applies both heads directly to the input.
    The net owns a 64-byte-aligned copy of `flat`; write parameters through `flat[...]`,
    `weights[k][...]` or `biases[k][...]`, which all share its memory.
    """

    def __init__(self, layer_sizes: list[int], flat: np.ndarray) -> None:
        self.layer_sizes = [int(s) for s in layer_sizes]
        n = param_count(self.layer_sizes)
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (n,):
            raise StructuralError(
                f"parameter vector has shape {flat.shape}, layer sizes {self.layer_sizes} need ({n},)"
            )
        buffer = np.empty(n + _ALIGN_BYTES // 8)  # numpy aligns an allocation to 8 bytes at least
        start = -buffer.ctypes.data % _ALIGN_BYTES // 8
        self.flat = buffer[start : start + n]
        self.flat[...] = flat
        self.weights, self.biases = _layer_views(self.flat, self.layer_sizes)

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def policy_dim(self) -> int:
        return self.layer_sizes[-2]

    @property
    def n_hidden(self) -> int:
        return len(self.layer_sizes) - 3

    def validate(self) -> None:
        if not np.all(np.isfinite(self.flat)):
            raise NumericsError("network parameters contain non-finite values")


def _orthogonal(rng: np.random.Generator, rows: int, cols: int, gain: float) -> np.ndarray:
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    q = q * np.where(d == 0.0, 1.0, np.sign(d))  # pin the QR sign convention
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


def init_net(
    obs_dim: int,
    policy_dim: int,
    hidden_units: int = 128,
    num_layers: int = 2,
    seed: int | None = 0,
) -> DenseNet:
    """Seeded orthogonal init: gain sqrt(2) on the trunk, 0.01 policy head, 1.0 value head; zero biases."""
    rng = np.random.default_rng(seed)
    layer_sizes = [obs_dim] + [hidden_units] * num_layers + [policy_dim, 1]
    net = DenseNet(layer_sizes, np.zeros(param_count(layer_sizes)))
    gains = [np.sqrt(2.0)] * num_layers + [0.01, 1.0]
    for w, gain in zip(net.weights, gains):
        w[...] = _orthogonal(rng, *w.shape, gain)
    return net


# ---------------------------------------------------------------------------
# forward / backward


def trunk(net: DenseNet, x: np.ndarray) -> list[np.ndarray]:
    """The input batch (..., input_dim) followed by each hidden activation, in layer order.

    The last entry feeds both heads; `backward` takes the whole list for the
    tanh derivatives and the weight gradients.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != net.input_dim:
        raise StructuralError(f"observation dim {x.shape[-1]} != network input dim {net.input_dim}")
    if not np.all(np.isfinite(x)):
        raise InputError("observation contains non-finite entries")
    acts = [x]
    for w, b in zip(net.weights[:-2], net.biases[:-2]):
        acts.append(np.tanh(acts[-1] @ w + b))
    return acts


def heads(net: DenseNet, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Policy logits (..., policy_dim) and values (...) from the last trunk activation."""
    return h @ net.weights[-2] + net.biases[-2], (h @ net.weights[-1] + net.biases[-1])[..., 0]


def forward(net: DenseNet, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
    """Evaluate the net: returns (policy logits, state value).

    Accepts a single observation (input_dim,) or a batch (..., input_dim);
    the value is a scalar float or an array of the batch shape
    correspondingly. Leading batch axes stay in the matmuls, so each
    (n, input_dim) slice of a stacked batch gives the same bits as on its own.
    """
    obs = np.asarray(obs, dtype=np.float64)
    single = obs.ndim == 1
    logits, value = heads(net, trunk(net, obs[None, :] if single else obs)[-1])
    if single:
        return logits[0], float(value[0])
    return logits, value


def backward(
    net: DenseNet,
    acts: list[np.ndarray],
    d_logits: np.ndarray,
    d_value: np.ndarray,
) -> np.ndarray:
    """Exact gradient of ``d_logits . logits + d_value . value`` w.r.t. every parameter.

    acts is what `trunk` returned for an (n, input_dim) batch; d_logits is
    (n, policy_dim) and d_value (n,). Returns one vector shaped like
    `net.flat`, in canonical parameter order, summed over the batch.
    """
    d_logits = np.asarray(d_logits, dtype=np.float64)
    d_value = np.asarray(d_value, dtype=np.float64)
    n = len(acts[0])
    if len(acts) != net.n_hidden + 1 or d_logits.shape != (n, net.policy_dim) or d_value.shape != (n,):
        raise StructuralError(
            f"got {len(acts)} trunk activations and upstream shapes {d_logits.shape}/{d_value.shape}, "
            f"need {net.n_hidden + 1} and ({n}, {net.policy_dim})/({n},)"
        )

    grad = np.zeros_like(net.flat)
    d_weights, d_biases = _layer_views(grad, net.layer_sizes)
    last = acts[-1]
    # Head gradients.
    d_weights[-2][...] = last.T @ d_logits
    d_biases[-2][...] = d_logits.sum(axis=0)
    d_weights[-1][...] = last.T @ d_value[:, None]
    d_biases[-1][...] = d_value.sum(axis=0, keepdims=True)
    # Back through the trunk.
    dh = d_logits @ net.weights[-2].T + d_value[:, None] @ net.weights[-1].T
    for k in range(net.n_hidden - 1, -1, -1):
        dz = dh * (1.0 - acts[k + 1] ** 2)  # tanh'
        d_weights[k][...] = acts[k].T @ dz
        d_biases[k][...] = dz.sum(axis=0)
        if k > 0:  # the input gradient would go unused
            dh = dz @ net.weights[k].T
    return grad


# ---------------------------------------------------------------------------
# categorical helpers


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """First/second moments, each a vector shaped like the net's `flat`, plus the shared step counter."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    @classmethod
    def for_net(cls, net: DenseNet) -> "AdamState":
        return cls(first_moment=np.zeros_like(net.flat), second_moment=np.zeros_like(net.flat))

    def copy(self) -> "AdamState":
        return AdamState(self.first_moment.copy(), self.second_moment.copy(), self.step_count)


def adam_step(
    net: DenseNet,
    state: AdamState,
    grad: np.ndarray,
    rate: float,
) -> tuple[DenseNet, AdamState]:
    """One bias-corrected Adam update, in place. Rejects a non-finite gradient untouched."""
    if grad.shape != net.flat.shape:
        raise StructuralError(f"gradient shape {grad.shape} does not match the {net.flat.size} parameters")
    if rate < 0:
        raise InputError(f"learning rate must be >= 0, got {rate}")
    if not np.all(np.isfinite(grad)):
        raise NumericsError("non-finite gradient: update rejected, parameters unchanged")

    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    m, v = state.first_moment, state.second_moment
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    net.flat -= rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return net, state


# ---------------------------------------------------------------------------
# learning-rate schedule


@dataclass
class LrSchedule:
    initial_rate: float = 3.0e-4
    max_steps: int = 1_000_000

    def __post_init__(self) -> None:
        if self.max_steps <= 0:
            raise StructuralError(f"max_steps must be positive, got {self.max_steps}")


def lr_at(schedule: LrSchedule, step: int) -> float:
    """Linear decay: initial at step 0, zero at max_steps; clamps to 0 past the end."""
    if step < 0:
        raise InputError(f"step must be >= 0, got {step}")
    frac = 1.0 - step / schedule.max_steps
    return schedule.initial_rate * max(0.0, frac)


# ---------------------------------------------------------------------------
# checkpoint container
#
# Layout (all little-endian):
#   8s   tag
#   <I   version
#   <I   number of layer_sizes entries, then that many <I
#   <f8  the parameter vector, then the Adam first moments, then the second moments
#   <Q   Adam step_count
#   <Q   RNG seed
#   <Q   global step
#   <I   CRC32 of everything above
# ADAM_BETA1, ADAM_BETA2 and ADAM_EPS are module constants and are not serialized.


def checkpoint_to_bytes(
    net: DenseNet,
    adam: AdamState,
    rng_seed: int,
    global_step: int,
) -> bytes:
    net.validate()
    sizes = net.layer_sizes
    body = b"".join(
        [
            CHECKPOINT_TAG,
            struct.pack(f"<II{len(sizes)}I", CHECKPOINT_VERSION, len(sizes), *sizes),
            np.concatenate([net.flat, adam.first_moment, adam.second_moment]).astype("<f8").tobytes(),
            struct.pack("<QQQ", adam.step_count, rng_seed, global_step),
        ]
    )
    return body + struct.pack("<I", zlib.crc32(body))


def checkpoint_from_bytes(data: bytes) -> tuple[DenseNet, AdamState, int, int]:
    """Parse a checkpoint blob; returns (net, adam_state, rng_seed, global_step)."""
    if len(data) < len(CHECKPOINT_TAG) + 8 or data[: len(CHECKPOINT_TAG)] != CHECKPOINT_TAG:
        raise CheckpointError("not a network checkpoint (bad tag)")
    if zlib.crc32(data[:-4]) != struct.unpack("<I", data[-4:])[0]:
        raise CheckpointError("checkpoint checksum mismatch (truncated or corrupted)")
    view = memoryview(data)[:-4]
    off = len(CHECKPOINT_TAG)

    def take(size: int) -> memoryview:
        nonlocal off
        if off + size > len(view):
            raise CheckpointError("checkpoint truncated")
        off += size
        return view[off - size : off]

    (version,) = struct.unpack("<I", take(4))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint version {version} != supported {CHECKPOINT_VERSION}")
    (n_sizes,) = struct.unpack("<I", take(4))
    layer_sizes = list(struct.unpack(f"<{n_sizes}I", take(4 * n_sizes)))
    try:
        n = param_count(layer_sizes)
    except StructuralError as exc:
        raise CheckpointError(f"checkpoint header: {exc}") from None
    params, m1, m2 = np.frombuffer(take(3 * 8 * n), dtype="<f8").reshape(3, n)
    step_count, rng_seed, global_step = struct.unpack("<QQQ", take(24))
    if off != len(view):
        raise CheckpointError("checkpoint has trailing bytes")

    net = DenseNet(layer_sizes, params)
    net.validate()
    adam = AdamState(m1.astype(np.float64), m2.astype(np.float64), step_count)
    return net, adam, rng_seed, global_step


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temp file beside `path` for writing; on a clean exit fsync it and move it onto `path`.

    A failure mid-write removes the temp file and leaves any previous file at `path` intact.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_rows(path, cls, rows) -> None:
    """Write `rows`, instances of the dataclass `cls`, as a CSV through `atomic_open`.

    The header is the field names and each row its field values, as csv.writer writes them: a float,
    numpy's float64 too, as its shortest repr, and an int as digits.
    """
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(cls)])
        writer.writerows(astuple(row) for row in rows)


def read_rows(path, cls, last_key: float = math.inf) -> list:
    """The rows of a CSV that `write_rows` wrote for the dataclass `cls`, each field parsed by its annotated type.

    A header other than the field names, a row with another field count, a field its type refuses
    (a byte the file's encoding cannot decode reaches it as a lone surrogate), or values `cls`
    refuses with InputError raises InputError naming the file and line. A field declared
    init=False is parsed, then left for `cls` to derive. Reading stops, unparsed, at the first
    row whose first field is an integer above `last_key`.
    """
    hints = get_type_hints(cls)
    columns = fields(cls)
    header = [f.name for f in columns]
    with open(path, newline="", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != header:
            raise InputError(f"{path}: line 1: expected header {header}, got {got}")
        rows = []
        for raw in reader:
            try:
                if raw and raw[0].isdecimal() and int(raw[0]) > last_key:
                    break
                if len(raw) != len(header):
                    raise ValueError(f"{len(raw)} fields, not {len(header)}")
                values = [hints[f.name](value) for f, value in zip(columns, raw)]
                rows.append(cls(*(v for f, v in zip(columns, values) if f.init)))
            except (ValueError, InputError) as exc:
                raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
    return rows


def save_checkpoint(path, net: DenseNet, adam: AdamState, rng_seed: int, global_step: int) -> None:
    """Write the checkpoint atomically: a crash mid-write leaves any previous file at `path` intact."""
    blob = checkpoint_to_bytes(net, adam, rng_seed, global_step)
    with atomic_open(path, "wb") as fh:
        fh.write(blob)


def load_checkpoint(path) -> tuple[DenseNet, AdamState, int, int]:
    with open(path, "rb") as fh:
        return checkpoint_from_bytes(fh.read())

"""Dense actor-critic network with hand-written reverse-mode gradients.

The network is a tanh MLP trunk shared by two linear heads: a policy head
emitting categorical logits over the joint action space and a scalar value
head. All math is float64 numpy, so forward/backward are bit-deterministic
for identical inputs within a process.

Parameter order everywhere (gradients, Adam moments, checkpoints) is:
trunk layer 0 (W, b), trunk layer 1 (W, b), ..., policy head (W, b),
value head (W, b). Weight matrices are (fan_in, fan_out), applied as
``h @ W + b``.
"""

from __future__ import annotations

import csv
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError, InputError, NumericsError, StructuralError

CHECKPOINT_TAG = b"PPACNET\x00"
CHECKPOINT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class DenseNet:
    """Shared-trunk actor-critic parameters.

    layer_sizes lists every dimension in order: input, each hidden width,
    the policy head width, and finally 1 for the value head. A net with no
    hidden layers (len == 3) applies both heads directly to the input.
    """

    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def policy_dim(self) -> int:
        return self.layer_sizes[-2]

    @property
    def n_hidden(self) -> int:
        return len(self.layer_sizes) - 3

    def parameters(self) -> list[np.ndarray]:
        """Live views of all parameter arrays in canonical order."""
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def num_params(self) -> int:
        return sum(p.size for p in self.parameters())

    def get_flat(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.parameters()])

    def set_flat(self, flat: np.ndarray) -> None:
        if flat.size != self.num_params():
            raise StructuralError(
                f"flat vector has {flat.size} entries, net has {self.num_params()} parameters"
            )
        i = 0
        for p in self.parameters():
            p[...] = flat[i : i + p.size].reshape(p.shape)
            i += p.size

    def copy(self) -> "DenseNet":
        return DenseNet(
            layer_sizes=list(self.layer_sizes),
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )

    def validate(self) -> None:
        sizes = self.layer_sizes
        if len(sizes) < 3:
            raise StructuralError("layer_sizes needs at least (input, policy, value) entries")
        if sizes[-1] != 1:
            raise StructuralError(f"value head width must be 1, got {sizes[-1]}")
        if any(s <= 0 for s in sizes):
            raise StructuralError(f"layer_sizes must be positive: {sizes}")
        expected = _layer_shapes(sizes)
        got = [(w.shape, b.shape) for w, b in zip(self.weights, self.biases)]
        if got != expected:
            raise StructuralError(f"parameter shapes {got} do not chain as {expected}")
        for p in self.parameters():
            if not np.all(np.isfinite(p)):
                raise NumericsError("network parameters contain non-finite values")


def _layer_shapes(layer_sizes: list[int]) -> list[tuple[tuple[int, int], tuple[int]]]:
    """(W, b) shapes per layer: hidden chain, then the two heads off the last trunk width."""
    trunk = layer_sizes[: len(layer_sizes) - 2]
    shapes = [((trunk[i], trunk[i + 1]), (trunk[i + 1],)) for i in range(len(trunk) - 1)]
    last = trunk[-1]
    shapes.append(((last, layer_sizes[-2]), (layer_sizes[-2],)))
    shapes.append(((last, 1), (1,)))
    return shapes


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
    """Seeded orthogonal init: gain sqrt(2) on the trunk, 0.01 policy head, 1.0 value head."""
    rng = np.random.default_rng(seed)
    layer_sizes = [obs_dim] + [hidden_units] * num_layers + [policy_dim, 1]
    weights: list[np.ndarray] = []
    biases: list[np.ndarray] = []
    gains = [np.sqrt(2.0)] * num_layers + [0.01, 1.0]
    for (wshape, bshape), gain in zip(_layer_shapes(layer_sizes), gains):
        weights.append(_orthogonal(rng, *wshape, gain))
        biases.append(np.zeros(bshape))
    net = DenseNet(layer_sizes=layer_sizes, weights=weights, biases=biases)
    net.validate()
    return net


def zeros_like_params(net: DenseNet) -> list[np.ndarray]:
    return [np.zeros_like(p) for p in net.parameters()]


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
) -> list[np.ndarray]:
    """Exact gradients of ``d_logits . logits + d_value . value`` w.r.t. every parameter.

    acts is what `trunk` returned for an (n, input_dim) batch; d_logits is
    (n, policy_dim) and d_value (n,). Returns arrays in canonical parameter
    order, summed over the batch.
    """
    d_logits = np.asarray(d_logits, dtype=np.float64)
    d_value = np.asarray(d_value, dtype=np.float64)
    n = len(acts[0])
    if len(acts) != net.n_hidden + 1 or d_logits.shape != (n, net.policy_dim) or d_value.shape != (n,):
        raise StructuralError(
            f"got {len(acts)} trunk activations and upstream shapes {d_logits.shape}/{d_value.shape}, "
            f"need {net.n_hidden + 1} and ({n}, {net.policy_dim})/({n},)"
        )

    grads = zeros_like_params(net)
    last = acts[-1]
    # Head gradients.
    grads[-4][...] = last.T @ d_logits          # policy W
    grads[-3][...] = d_logits.sum(axis=0)       # policy b
    grads[-2][...] = last.T @ d_value[:, None]  # value W
    grads[-1][...] = d_value.sum(axis=0, keepdims=True)
    # Back through the trunk.
    dh = d_logits @ net.weights[-2].T + d_value[:, None] @ net.weights[-1].T
    for k in range(net.n_hidden - 1, -1, -1):
        dz = dh * (1.0 - acts[k + 1] ** 2)  # tanh'
        grads[2 * k][...] = acts[k].T @ dz
        grads[2 * k + 1][...] = dz.sum(axis=0)
        dh = dz @ net.weights[k].T
    return grads


# ---------------------------------------------------------------------------
# categorical helpers


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    step_count: int = 0

    @classmethod
    def for_net(cls, net: DenseNet) -> "AdamState":
        return cls(
            first_moment=zeros_like_params(net),
            second_moment=zeros_like_params(net),
        )

    def copy(self) -> "AdamState":
        return AdamState(
            first_moment=[m.copy() for m in self.first_moment],
            second_moment=[v.copy() for v in self.second_moment],
            step_count=self.step_count,
        )


def adam_step(
    net: DenseNet,
    state: AdamState,
    grads: list[np.ndarray],
    rate: float,
) -> tuple[DenseNet, AdamState]:
    """One bias-corrected Adam update, in place. Rejects non-finite gradients untouched."""
    params = net.parameters()
    if len(grads) != len(params) or any(g.shape != p.shape for g, p in zip(grads, params)):
        raise StructuralError("gradient shapes do not match parameters")
    if rate < 0:
        raise InputError(f"learning rate must be >= 0, got {rate}")
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise NumericsError("non-finite gradient: update rejected, parameters unchanged")

    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for p, m, v, g in zip(params, state.first_moment, state.second_moment, grads):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
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
#   raw  every weight matrix and bias vector, row-major float64
#   raw  Adam first moments, then second moments, same order/dtype
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
    parts = [CHECKPOINT_TAG, struct.pack("<I", CHECKPOINT_VERSION)]
    parts.append(struct.pack("<I", len(net.layer_sizes)))
    parts.append(struct.pack(f"<{len(net.layer_sizes)}I", *net.layer_sizes))
    for arr in net.parameters():
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    for arr in adam.first_moment + adam.second_moment:
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    parts.append(struct.pack("<QQQ", adam.step_count, rng_seed, global_step))
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def checkpoint_from_bytes(data: bytes) -> tuple[DenseNet, AdamState, int, int]:
    """Parse a checkpoint blob; returns (net, adam_state, rng_seed, global_step)."""
    if len(data) < len(CHECKPOINT_TAG) + 8 or data[: len(CHECKPOINT_TAG)] != CHECKPOINT_TAG:
        raise CheckpointError("not a network checkpoint (bad tag)")
    if zlib.crc32(data[:-4]) != struct.unpack("<I", data[-4:])[0]:
        raise CheckpointError("checkpoint checksum mismatch (truncated or corrupted)")
    off = len(CHECKPOINT_TAG)

    def take(fmt: str):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(data) - 4:
            raise CheckpointError("checkpoint truncated")
        out = struct.unpack_from(fmt, data, off)
        off += size
        return out

    (version,) = take("<I")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint version {version} != supported {CHECKPOINT_VERSION}")
    (n_sizes,) = take("<I")
    layer_sizes = list(take(f"<{n_sizes}I"))

    def take_array(shape: tuple[int, ...]) -> np.ndarray:
        nonlocal off
        n = int(np.prod(shape))
        size = n * 8
        if off + size > len(data) - 4:
            raise CheckpointError("checkpoint truncated")
        arr = np.frombuffer(data, dtype="<f8", count=n, offset=off).reshape(shape)
        off += size
        return arr.astype(np.float64)

    shapes = _layer_shapes(layer_sizes)
    flat_shapes: list[tuple[int, ...]] = []
    for wshape, bshape in shapes:
        flat_shapes.extend([wshape, bshape])
    params = [take_array(s) for s in flat_shapes]
    m1 = [take_array(s) for s in flat_shapes]
    m2 = [take_array(s) for s in flat_shapes]
    step_count, rng_seed, global_step = take("<QQQ")
    if off != len(data) - 4:
        raise CheckpointError("checkpoint has trailing bytes")

    net = DenseNet(
        layer_sizes=layer_sizes,
        weights=params[0::2],
        biases=params[1::2],
    )
    net.validate()
    adam = AdamState(first_moment=m1, second_moment=m2, step_count=step_count)
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


def read_csv_rows(path, header: list[str], types, make, error: type[Exception]) -> list:
    """`make(*row)` for every data row of a CSV whose first row is `header`, fields converted by `types`.

    Any other header raises StructuralError. A row with a field count other than the header's,
    a field its type refuses, or values `make` refuses with `error` raises `error` naming the line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != header:
            raise StructuralError(f"{path}: expected header {header}, got {got}")
        rows = []
        for raw in reader:
            try:
                if len(raw) != len(header):
                    raise ValueError(f"{len(raw)} fields, not {len(header)}")
                rows.append(make(*(convert(value) for convert, value in zip(types, raw))))
            except (ValueError, error) as exc:
                raise error(f"{path}: line {reader.line_num}: {exc}") from None
    return rows


def save_checkpoint(path, net: DenseNet, adam: AdamState, rng_seed: int, global_step: int) -> None:
    """Write the checkpoint atomically: a crash mid-write leaves any previous file at `path` intact."""
    blob = checkpoint_to_bytes(net, adam, rng_seed, global_step)
    with atomic_open(path, "wb") as fh:
        fh.write(blob)


def load_checkpoint(path) -> tuple[DenseNet, AdamState, int, int]:
    with open(path, "rb") as fh:
        return checkpoint_from_bytes(fh.read())

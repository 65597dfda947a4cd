"""Minimal dense network with manual backprop, neuron masks, and structured pruning.

Hidden activations carry per-neuron binary masks (Hadamard product before the
next layer), importance is the L2 norm of a neuron's incoming row concatenated
with its outgoing column, sparsity follows a cubic ramp, and compaction
physically deletes masked neurons at the end of training.

A net may carry a leading stack axis: K nets of one shape, with (K, out, in)
weights and (K, width) masks, run by the same forward and backward code with
one matmul per layer. ``PrunableMlp.stack`` builds such a net and takes over
the storage of the nets it stacks: from then on the stack owns their weights
and masks, and each net's arrays are views of its slice. Edits in place
(weight steps, ``update_masks``) through either reach the other. Importance,
masking and compaction work on one unstacked net, such as one slice's view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CHECKPOINT_VERSION = 2


@dataclass
class DenseLayer:
    """Fully connected layer without bias: out x in weights.

    (K, out, in) weights make a stack of K layers.
    """

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim not in (2, 3):
            raise ValueError("weights must be a 2-D matrix or a stack of them")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("non-finite weights")

    @property
    def bias(self) -> None:
        """Always None: no layer has a bias.

        Read-only, and kept only because the benchmark's compact observer
        (perfbench/spans.py) still reads ``layer.bias``.
        """
        return None

    @property
    def out_dim(self) -> int:
        return self.weights.shape[-2]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[-1]


@dataclass
class PruneSchedule:
    """Cubic sparsity ramp from initial to target over M pruning steps."""

    initial_sparsity: float
    target_sparsity: float
    start_epoch: int
    total_steps: int
    frequency: int = 1

    def __post_init__(self):
        if not 0.0 <= self.initial_sparsity < 1.0:
            raise ValueError("initial_sparsity must lie in [0, 1)")
        if not 0.0 <= self.target_sparsity < 1.0:
            raise ValueError("target_sparsity must lie in [0, 1)")
        if self.initial_sparsity > self.target_sparsity:
            raise ValueError("initial sparsity above target")
        if self.start_epoch < 0:
            raise ValueError("start_epoch must be >= 0")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if self.frequency < 1:
            raise ValueError("frequency must be >= 1")

    @property
    def end_epoch(self) -> int:
        return self.start_epoch + self.total_steps * self.frequency

    def is_update_epoch(self, epoch: int) -> bool:
        return (self.start_epoch <= epoch <= self.end_epoch
                and (epoch - self.start_epoch) % self.frequency == 0)


def sparsity_at(schedule: PruneSchedule, epoch: int) -> float:
    """Scheduled sparsity fraction at an epoch, clamped to the ramp endpoints."""
    span = schedule.total_steps * schedule.frequency
    t = min(max(epoch - schedule.start_epoch, 0), span)
    if t == 0:
        return schedule.initial_sparsity
    if t == span:
        return schedule.target_sparsity
    frac = (1.0 - t / span) ** 3
    return schedule.target_sparsity + (schedule.initial_sparsity
                                       - schedule.target_sparsity) * frac


class PrunableMlp:
    """Dense net of bias-free ReLU hidden layers and a linear output layer.

    Masks live on the hidden layers only. Stacked layers make a stack of nets,
    with one (K, width) mask per hidden layer (see the module docstring).
    """

    def __init__(self, layers: list[DenseLayer]):
        if not layers:
            raise ValueError("need at least one layer")
        for a, b in zip(layers, layers[1:]):
            if (b.in_dim != a.out_dim
                    or b.weights.shape[:-2] != a.weights.shape[:-2]):
                raise ValueError("adjacent layer dimensions do not match")
        self.layers = layers
        self.masks = [np.ones(l.weights.shape[:-1]) for l in layers[:-1]]

    # -- construction helpers ------------------------------------------------

    @classmethod
    def create(cls, sizes: list[int],
               rng: np.random.Generator | None = None) -> "PrunableMlp":
        """He-style random init for the dims in sizes (input, hidden..., output)."""
        rng = rng or np.random.default_rng()
        return cls([DenseLayer(rng.standard_normal((n_out, n_in)) * np.sqrt(2.0 / n_in))
                    for n_in, n_out in zip(sizes, sizes[1:])])

    @classmethod
    def stack(cls, nets: list["PrunableMlp"]) -> "PrunableMlp":
        """One net stacking the given nets of one shape on a leading axis.

        The stack takes over their storage: afterwards each net's weights and
        masks are views of its slice of the stack's.
        """
        stacked = cls([DenseLayer(np.stack([n.layers[k].weights for n in nets]))
                       for k in range(len(nets[0].layers))])
        stacked.masks = [np.stack([n.masks[k] for n in nets])
                         for k in range(len(stacked.masks))]
        for i, net in enumerate(nets):
            for layer, whole in zip(net.layers, stacked.layers):
                layer.weights = whole.weights[i]
            net.masks = [m[i] for m in stacked.masks]
        return stacked

    @property
    def num_hidden_layers(self) -> int:
        return len(self.layers) - 1

    def hidden_sizes(self) -> list[int]:
        return [l.out_dim for l in self.layers[:-1]]

    # -- forward / backward --------------------------------------------------

    def forward(self, x):
        """Batched masked forward pass; returns (output, cache) for backward.

        x may be a single vector or a (batch, in_dim) matrix; a stack of K nets
        takes one of these per net, as (K, in_dim) or (K, batch, in_dim). The
        cache is the list of every layer's input.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == self.layers[0].weights.ndim - 1
        a = x[..., None, :] if single else x
        if a.shape[-1] != self.layers[0].in_dim:
            raise ValueError("input dimension mismatch")
        cache = [a]
        for k, layer in enumerate(self.layers):
            a = a @ layer.weights.swapaxes(-1, -2)
            if k < len(self.masks):
                # ReLU, then the mask, in place: a stacked batch's arrays are
                # large enough that each fresh one costs page faults
                np.maximum(a, 0.0, out=a)
                a *= self.masks[k][..., None, :]
                cache.append(a)
        out = a[..., 0, :] if single else a
        return out, cache

    def backward(self, cache, output_gradient):
        """Gradients of a scalar loss w.r.t. every weight matrix, as a list.

        output_gradient is dloss/doutput with the same batch shape the forward
        pass used. Masked neurons get exactly zero incoming and outgoing
        weight gradients.
        """
        delta = np.asarray(output_gradient, dtype=float)
        if delta.ndim == self.layers[0].weights.ndim - 1:
            delta = delta[..., None, :]
        grads = [None] * len(self.layers)
        for k in reversed(range(len(self.layers))):
            if k < len(self.masks):  # delta is this call's own array: in place
                delta *= self.masks[k][..., None, :]
                delta *= cache[k + 1] > 0.0   # bool: x*True == x
            grads[k] = delta.swapaxes(-1, -2) @ cache[k]
            if k:   # the gradient w.r.t. the network's input is never used
                delta = delta @ self.layers[k].weights
        return grads


# ---------------------------------------------------------------------------
# Importance, masking, compaction
# ---------------------------------------------------------------------------

def neuron_importance(net: PrunableMlp) -> list[np.ndarray]:
    """Per-hidden-neuron score: L2 norm of incoming row ++ outgoing column."""
    scores = []
    for k in range(net.num_hidden_layers):
        incoming = net.layers[k].weights
        outgoing = net.layers[k + 1].weights
        scores.append(np.sqrt(np.sum(incoming ** 2, axis=1)
                              + np.sum(outgoing ** 2, axis=0)))
    return scores


def update_masks(net: PrunableMlp, schedule: PruneSchedule, epoch: int,
                 floor_neurons: int = 4) -> float:
    """Re-mask hidden neurons so the pooled sparsity tracks the schedule.

    The k lowest-importance neurons are masked, k = round(w(t) * N); ties break
    deterministically by (layer, index).  Each hidden layer keeps at least
    floor_neurons active (its top scorers are reactivated if needed).  Returns
    the threshold: the smallest surviving score, or 0 when nothing is masked.
    Masks are soft; previously masked neurons may come back.  The masks are
    written in place, so a net that is a view of a stack's slice masks that
    slice.
    """
    w = sparsity_at(schedule, epoch)
    scores = neuron_importance(net)
    pooled = [(scores[k][n], k, n)
              for k in range(net.num_hidden_layers)
              for n in range(len(scores[k]))]
    pooled.sort()
    total = len(pooled)
    k_mask = int(round(w * total))

    masks = [np.ones(len(s)) for s in scores]
    for score, layer, idx in pooled[:k_mask]:
        masks[layer][idx] = 0.0
    threshold = pooled[k_mask][0] if k_mask < total else float("inf")
    if k_mask == 0:
        threshold = 0.0

    # per-layer floor: reactivate top scorers of collapsed layers
    for k, m in enumerate(masks):
        active = int(m.sum())
        if active < floor_neurons:
            order = np.lexsort((np.arange(len(m)), -scores[k]))
            for idx in order[:floor_neurons]:
                m[idx] = 1.0
    for old, new in zip(net.masks, masks):
        old[...] = new
    return threshold


def compact(net: PrunableMlp) -> PrunableMlp:
    """Physically delete masked neurons; its forward equals net.forward(x) exactly."""
    keep = [np.flatnonzero(m > 0) for m in net.masks]
    layers = []
    for k, layer in enumerate(net.layers):
        w = layer.weights
        if k > 0:
            w = w[:, keep[k - 1]]
        if k < len(net.masks):
            w = w[keep[k], :]
        layers.append(DenseLayer(w.copy()))
    return PrunableMlp(layers)


def parameter_count(net: PrunableMlp) -> int:
    return int(sum(l.weights.size for l in net.layers))


# ---------------------------------------------------------------------------
# Checkpoint format (versioned npz; round-trip is bit-exact)
# ---------------------------------------------------------------------------

def save_net(net: PrunableMlp, path, extra: dict | None = None) -> None:
    payload = {
        "version": np.array(CHECKPOINT_VERSION),
        "num_layers": np.array(len(net.layers)),
    }
    for k, layer in enumerate(net.layers):
        payload[f"w{k}"] = layer.weights
    for k, m in enumerate(net.masks):
        payload[f"m{k}"] = m
    for key, val in (extra or {}).items():
        payload[f"x_{key}"] = np.asarray(val)
    np.savez(path, **payload)


def load_net(path) -> tuple[PrunableMlp, dict]:
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        n = int(data["num_layers"])
        net = PrunableMlp([DenseLayer(data[f"w{k}"]) for k in range(n)])
        net.masks = [data[f"m{k}"] for k in range(n - 1)]
        extra = {key[2:]: data[key] for key in data.files if key.startswith("x_")}
    return net, extra

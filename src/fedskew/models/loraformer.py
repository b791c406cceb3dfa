"""Small pre-LN transformer encoder with a frozen backbone and LoRA adapters
on the attention query/value projections.

The backbone (embeddings, attention, FFN, layernorms) never trains in the
federated phase; only the rank-r adapters and the classifier head do.
Adapters start at exactly zero effect (B = 0).  The features pass, under the
linear head `head`, is the embeddings, the encoder layers (each
`numkit.kernels.encoder_layer_forward`), `ln_f` and the masked mean pool.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .. import numkit as nk
from ..numkit import kernels as kn
from .. import validate
from ..numkit.optim import OptimizerCfg, adamw_step
from ..textdata import PAD_ID, SyntheticSpec, generate_synthetic, make_batches
from .params import Group, ParamSet, StructuralError, build_params, eval_forward, train_step

PRETRAIN_WEIGHT_DECAY = 0.01  # AdamW's decoupled weight decay while the backbone pretrains
LORA_ALPHA = 32.0  # an adapter's update is scaled by LORA_ALPHA / lora_rank


@dataclass(frozen=True)
class LoraFormerConfig:
    num_classes: int
    layers: int = 2
    d_model: int = 64
    heads: int = 4
    ffn_dim: int = 128
    lora_rank: int = 8
    lora_dropout: float = 0.1
    backbone_mode: str = "random-frozen"  # or "pretrained-frozen"

    def __post_init__(self):
        for name in ("num_classes", "layers", "d_model", "heads", "ffn_dim", "lora_rank"):
            validate.integer(name, getattr(self, name))
        validate.fraction("lora_dropout", self.lora_dropout)
        if self.d_model % self.heads != 0:
            raise ValueError("d_model must be divisible by heads")
        if self.backbone_mode not in ("random-frozen", "pretrained-frozen"):
            raise ValueError(f"unknown backbone mode {self.backbone_mode!r}")

    @property
    def lora_scale(self) -> float:
        return LORA_ALPHA / self.lora_rank


def _backbone_groups(cfg: LoraFormerConfig, vocab_size: int, max_seq_len: int, seed: int):
    def init(name, shape, std=None):
        rng = nk.derive(seed, "init", name)
        std = std if std is not None else (2.0 / sum(shape)) ** 0.5
        return Group(name, rng.normal(0, std, shape), False, False)

    def affine(name, dim):
        return [Group(f"{name}.gain", np.ones(dim), False, False),
                Group(f"{name}.bias", np.zeros(dim), False, False)]

    d = cfg.d_model
    groups = [init("tok_emb", (vocab_size, d), std=0.02),
              init("pos_emb", (max_seq_len, d), std=0.02)]
    for i in range(cfg.layers):
        p = f"layer{i}"
        groups += affine(f"{p}.ln1", d)
        for proj in ("q", "k", "v", "o"):
            groups.append(init(f"{p}.attn.w{proj}", (d, d)))
            groups.append(Group(f"{p}.attn.b{proj}", np.zeros(d), False, False))
        groups += affine(f"{p}.ln2", d)
        groups.append(init(f"{p}.ffn.w1", (d, cfg.ffn_dim)))
        groups.append(Group(f"{p}.ffn.b1", np.zeros(cfg.ffn_dim), False, False))
        groups.append(init(f"{p}.ffn.w2", (cfg.ffn_dim, d)))
        groups.append(Group(f"{p}.ffn.b2", np.zeros(d), False, False))
    groups += affine("ln_f", d)
    return groups


def _adapter_groups(cfg: LoraFormerConfig, seed: int):
    groups = []
    for i in range(cfg.layers):
        for proj in ("q", "v"):
            name = f"layer{i}.attn.{proj}_lora"
            a = nk.derive(seed, "init", f"{name}.A").normal(0, 0.02, (cfg.lora_rank, cfg.d_model))
            groups.append(Group(f"{name}.A", a, True, True))
            groups.append(Group(f"{name}.B", np.zeros((cfg.d_model, cfg.lora_rank)), True, True))
    return groups


def _head_groups(d_model: int, classes: int):
    return [Group("head.weight", np.zeros((d_model, classes)), True, False),
            Group("head.bias", np.zeros(classes), True, False)]


def build_loraformer(cfg: LoraFormerConfig, vocab_size: int, max_seq_len: int, seed: int):
    """Returns (ParamSet, forward).  Backbone frozen; adapters + head trainable."""
    groups = (_backbone_groups(cfg, vocab_size, max_seq_len, seed)
              + _adapter_groups(cfg, seed) + _head_groups(cfg.d_model, cfg.num_classes))
    return build_params("loraformer", groups), make_forward(cfg)


def _layer_names(v: dict, cfg: LoraFormerConfig) -> list:
    """Per layer, {layer key: group name}; the adapter keys only where the group exists."""
    keys = kn.ENCODER_LAYER_KEYS + kn.ENCODER_ADAPTER_KEYS
    return [{k: f"layer{i}.{k}" for k in keys if f"layer{i}.{k}" in v}
            for i in range(cfg.layers)]


def _features(cfg: LoraFormerConfig, v, ids, keep_prob, rng):
    """ln_f of the encoder's output, mean-pooled over each document's non-PAD positions."""
    pad_mask = ids != PAD_ID
    h = v["tok_emb"][ids] + v["pos_emb"][: ids.shape[1]]
    mask_bias = kn.key_mask_bias(pad_mask)
    layers = []
    for i, names in enumerate(_layer_names(v, cfg)):
        h, cache = kn.encoder_layer_forward(h, {k: v[name] for k, name in names.items()},
                                            cfg.heads, mask_bias, cfg.lora_scale, keep_prob, rng,
                                            kn.scratch(f"layer{i}"))
        layers.append((names, cache))
    fin, xhat, inv = kn.layernorm(h, v["ln_f.gain"], v["ln_f.bias"])
    mask = pad_mask.astype(np.float64)
    counts = np.maximum(mask.sum(axis=1), 1.0)
    pooled = (fin * mask[:, :, None]).sum(axis=1) / counts[:, None]
    return pooled, (ids, v["ln_f.gain"], layers, mask, counts, xhat, inv)


def _features_backward(cache, g, grads: dict):
    """The pass stops below the lowest layer with a trained group, and computes a layer's
    key and first-layernorm gradients only where a trained group needs them."""
    ids, gain, layers, mask, counts, xhat, inv = cache
    # whether the input of each layer carries a gradient
    reaches = [bool({"tok_emb", "pos_emb"} & grads.keys())]
    for names, _ in layers[:-1]:
        reaches.append(reaches[-1] or any(name in grads for name in names.values()))
    g = mask[:, :, None] * (g / counts[:, None])[:, None, :]
    if "ln_f.gain" in grads:
        np.add.reduce(g * xhat, axis=(0, 1), out=grads["ln_f.gain"])
    if "ln_f.bias" in grads:
        np.add.reduce(g, axis=(0, 1), out=grads["ln_f.bias"])
    g = kn.layernorm_dx(g, gain, xhat, inv)
    for i in reversed(range(len(layers))):
        names, layer = layers[i]
        out = {k: grads[name] for k, name in names.items() if name in grads}
        g = kn.encoder_layer_backward(layer, g, out, reaches[i])
        if g is None:
            return
    if "tok_emb" in grads:
        grads["tok_emb"][...] = kn.row_sums(ids, g, grads["tok_emb"].shape)
    if "pos_emb" in grads:  # row_sums' sum over documents: from 0.0, in document order
        np.add.reduce(g, axis=0, initial=0.0, out=grads["pos_emb"][: g.shape[1]])
        grads["pos_emb"][g.shape[1] :] = 0.0


def make_forward(cfg: LoraFormerConfig):
    return eval_forward(functools.partial(_features, cfg))


def make_loss_and_grad(cfg: LoraFormerConfig):
    """Adapter dropout masks are drawn q's before v's, layer by layer."""
    return train_step(functools.partial(_features, cfg), _features_backward, 1.0 - cfg.lora_dropout)


def graph_forward(cfg: LoraFormerConfig):
    """The logits as an autodiff graph of ops, each encoder layer the op chain
    `numkit.encoder_layer_ops`, over a leaf per group: the reference of the functions above."""
    keep = 1.0 - cfg.lora_dropout

    def forward(params: ParamSet, token_ids, train: bool = False, rng=None):
        leaves = {g.name: nk.leaf(g.tensor, name=g.name, trainable=g.trainable)
                  for g in params}
        ids = np.asarray(token_ids)
        batch, seq = ids.shape
        pad_mask = ids != PAD_ID
        pos_ids = np.broadcast_to(np.arange(seq), (batch, seq))
        h = nk.add(nk.embedding_lookup(leaves["tok_emb"], ids),
                   nk.embedding_lookup(leaves["pos_emb"], pos_ids))
        for names in _layer_names(params.arrays, cfg):
            h = nk.encoder_layer_ops(h, {k: leaves[name] for k, name in names.items()},
                                     cfg.heads, pad_mask, cfg.lora_scale, keep, rng=rng,
                                     train=train)
        h = nk.layernorm(h, leaves["ln_f.gain"], leaves["ln_f.bias"])
        pooled = nk.masked_mean_pool(h, pad_mask.astype(np.float64))
        return nk.add(nk.matmul(pooled, leaves["head.weight"]), leaves["head.bias"])

    return forward


def merge_lora(params: ParamSet, cfg: LoraFormerConfig) -> ParamSet:
    """Fold adapters into the frozen projections, W' = W + lora_scale (B A)^T, in a model of
    its own layout: the same groups without the adapters."""
    if params.layout.model_kind != "loraformer":
        raise StructuralError("merge_lora requires a loraformer ParamSet")
    if not params.layout.lora.any():
        raise StructuralError("adapters already merged")
    v, merged = params.arrays, {}
    for name, a in v.items():
        if name.endswith("_lora.A"):  # layerN.attn.q_lora.A folds into layerN.attn.wq
            attn, _, proj = name[: -len("_lora.A")].rpartition(".")
            w = f"{attn}.w{proj}"
            merged[w] = v[w] + cfg.lora_scale * (v[f"{attn}.{proj}_lora.B"] @ a).T
    return build_params("loraformer", [g._replace(tensor=merged.get(g.name, g.tensor))
                                       for g in params if not g.lora])


class DisjointnessError(ValueError):
    """Proxy pretraining corpus overlaps the target dataset."""


def _doc_keys(split) -> set:
    """(label, unpadded token ids) of every row; PAD never occurs inside a document."""
    return {(int(label), ids[ids != PAD_ID].tobytes())
            for label, ids in zip(split.labels, split.token_ids)}


@dataclass(frozen=True)
class PretrainConfig:
    """`pretrain_backbone`'s settings and its synthetic proxy corpus, of `docs_per_class`
    documents per class of the target.  `optimizer`, the AdamW config built once from `lr`,
    is not a field, so it is not a config key."""
    seed: int
    steps: int = 200
    lr: float = 1e-3
    docs_per_class: int = 100
    topic_concentration: float = 0.2

    def __post_init__(self):
        validate.integer("seed", self.seed, minimum=None)
        validate.integer("steps", self.steps, minimum=0)
        object.__setattr__(self, "optimizer",
                           OptimizerCfg("adamw", self.lr, PRETRAIN_WEIGHT_DECAY))
        validate.integer("docs_per_class", self.docs_per_class)
        validate.positive("topic_concentration", self.topic_concentration)

    def proxy_spec(self, target) -> SyntheticSpec:
        """The proxy corpus's spec for the target dataset: the target's word count and
        `max_seq_len`.  A model of the target has one embedding row per entry of its
        vocabulary (its words, PAD and UNK) and one position per token of its
        `max_seq_len`, so it embeds every proxy word (ids 2 .. word count + 1) and position."""
        words = target.vocabulary.size - 2
        if words < 2:
            raise ValueError(f"the proxy corpus needs at least 2 words, and the target "
                             f"vocabulary has {words}")
        return SyntheticSpec(target.num_classes, words, self.docs_per_class, 1,
                             target.max_seq_len, self.topic_concentration, self.seed)


def pretrain_backbone(params: ParamSet, cfg: LoraFormerConfig, pre: PretrainConfig, target,
                      batch_size: int) -> ParamSet:
    """Train the backbone for `pre.steps` steps, with a throwaway head, on the proxy
    corpus `pre` specifies for the target, which must share no document with it; then
    freeze it again.  Adapters and the real head are untouched."""
    proxy = generate_synthetic(pre.proxy_spec(target))
    target_docs = _doc_keys(target.train) | _doc_keys(target.test)
    if not target_docs.isdisjoint(_doc_keys(proxy.train)):
        raise DisjointnessError("proxy corpus shares documents with the target dataset")

    # a model of its own: the backbone trainable, a throwaway head under the real head's
    # names, no adapters (their delta is zero at init; they must not absorb proxy gradients)
    backbone = [g._replace(trainable=True) for g in params if not g.trainable]
    work = build_params("loraformer", backbone + _head_groups(cfg.d_model, proxy.num_classes))
    flat = nk.FlatParams(work.vector, work.layout.shapes, pre.optimizer)
    work = work.with_vector(flat.vector)
    loss_and_grad = make_loss_and_grad(cfg)

    # epoch after epoch of reshuffled batches, each epoch batched only once it is reached
    epochs = (make_batches(proxy.train, batch_size, nk.sub_seed(pre.seed, "pretrain-epoch", e))
              for e in itertools.count())
    for batch in itertools.islice(itertools.chain.from_iterable(epochs), pre.steps):
        # no adapters, so no dropout mask and no rng
        loss_and_grad(work, batch.token_ids, batch.labels, None, flat.grads)
        adamw_step(flat)
    flat.freeze()
    return ParamSet(params.layout, params.vector, {g.name: work.arrays[g.name] for g in backbone})

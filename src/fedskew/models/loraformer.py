"""Small pre-LN transformer encoder with a frozen backbone and LoRA adapters
on the attention query/value projections.

The backbone (embeddings, attention, FFN, layernorms) never trains in the
federated phase; only the rank-r adapters and the classifier head do.
Adapters start at exactly zero effect (B = 0).  Each encoder layer runs
`numkit.kernels.encoder_layer_forward` and `encoder_layer_backward`.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .. import numkit as nk
from ..numkit import kernels as kn
from .. import validate
from ..numkit.optim import OptimizerCfg, adamw_step
from ..textdata import PAD_ID, SyntheticSpec, generate_synthetic, make_batches
from .params import ParamGroup, ParamSet, StructuralError

PRETRAIN_WEIGHT_DECAY = 0.01  # AdamW's decoupled weight decay while the backbone pretrains


@dataclass(frozen=True)
class LoraFormerConfig:
    num_classes: int
    layers: int = 2
    d_model: int = 64
    heads: int = 4
    ffn_dim: int = 128
    lora_rank: int = 8
    lora_scaling: float = 32.0
    lora_dropout: float = 0.1
    backbone_mode: str = "random-frozen"  # or "pretrained-frozen"

    def __post_init__(self):
        for name in ("num_classes", "layers", "d_model", "heads", "ffn_dim", "lora_rank"):
            validate.integer(name, getattr(self, name))
        validate.positive("lora_scaling", self.lora_scaling)
        validate.fraction("lora_dropout", self.lora_dropout)
        if self.d_model % self.heads != 0:
            raise ValueError("d_model must be divisible by heads")
        if self.backbone_mode not in ("random-frozen", "pretrained-frozen"):
            raise ValueError(f"unknown backbone mode {self.backbone_mode!r}")


def _backbone_groups(cfg: LoraFormerConfig, vocab_size: int, max_seq_len: int, seed: int):
    def init(name, shape, std=None):
        rng = nk.derive(seed, "init", name)
        std = std if std is not None else (2.0 / sum(shape)) ** 0.5
        return ParamGroup(name, nk.Tensor(rng.normal(0, std, shape)), False, False)

    def affine(name, dim):
        return [ParamGroup(f"{name}.gain", nk.Tensor(np.ones(dim)), False, False),
                ParamGroup(f"{name}.bias", nk.Tensor(np.zeros(dim)), False, False)]

    d = cfg.d_model
    groups = [init("tok_emb", (vocab_size, d), std=0.02),
              init("pos_emb", (max_seq_len, d), std=0.02)]
    for i in range(cfg.layers):
        p = f"layer{i}"
        groups += affine(f"{p}.ln1", d)
        for proj in ("q", "k", "v", "o"):
            groups.append(init(f"{p}.attn.w{proj}", (d, d)))
            groups.append(ParamGroup(f"{p}.attn.b{proj}", nk.Tensor(np.zeros(d)), False, False))
        groups += affine(f"{p}.ln2", d)
        groups.append(init(f"{p}.ffn.w1", (d, cfg.ffn_dim)))
        groups.append(ParamGroup(f"{p}.ffn.b1", nk.Tensor(np.zeros(cfg.ffn_dim)), False, False))
        groups.append(init(f"{p}.ffn.w2", (cfg.ffn_dim, d)))
        groups.append(ParamGroup(f"{p}.ffn.b2", nk.Tensor(np.zeros(d)), False, False))
    groups += affine("ln_f", d)
    return groups


def _adapter_groups(cfg: LoraFormerConfig, seed: int):
    groups = []
    for i in range(cfg.layers):
        for proj in ("q", "v"):
            name = f"layer{i}.attn.{proj}_lora"
            a = nk.derive(seed, "init", f"{name}.A").normal(0, 0.02, (cfg.lora_rank, cfg.d_model))
            groups.append(ParamGroup(f"{name}.A", nk.Tensor(a), True, True))
            groups.append(ParamGroup(f"{name}.B", nk.Tensor(np.zeros((cfg.d_model, cfg.lora_rank))),
                                     True, True))
    return groups


def _head_groups(cfg: LoraFormerConfig):
    return [ParamGroup("head.weight", nk.Tensor(np.zeros((cfg.d_model, cfg.num_classes))), True, False),
            ParamGroup("head.bias", nk.Tensor(np.zeros(cfg.num_classes)), True, False)]


def build_loraformer(cfg: LoraFormerConfig, vocab_size: int, max_seq_len: int, seed: int,
                     adapter_seed: int = None):
    """Returns (ParamSet, forward).  Backbone frozen; adapters + head trainable."""
    adapter_seed = seed if adapter_seed is None else adapter_seed
    groups = (_backbone_groups(cfg, vocab_size, max_seq_len, seed)
              + _adapter_groups(cfg, adapter_seed) + _head_groups(cfg))
    return ParamSet(groups, "loraformer"), make_forward(cfg)


def _layer_names(params: ParamSet, cfg: LoraFormerConfig) -> list:
    """Per layer, {layer key: group name}; the adapter keys only where the group exists."""
    keys = kn.ENCODER_LAYER_KEYS + kn.ENCODER_ADAPTER_KEYS
    return [{k: f"layer{i}.{k}" for k in keys if params.has(f"layer{i}.{k}")}
            for i in range(cfg.layers)]


def _run(cfg: LoraFormerConfig, params: ParamSet, ids, keep_prob, rng, train, caches=None):
    """The logits of a forward pass over in-range `ids`; with a `caches` list, it appends
    what the backward pass reads.  Non-finite logits raise `NumericError` for the op
    `loraformer_logits`: an inf or NaN anywhere upstream, PAD positions included, reaches
    them as inf or NaN, so they are the one place checked."""
    def v(name):
        return params.get(name).tensor.data

    n, s = ids.shape
    pad_mask = ids != PAD_ID
    h = v("tok_emb")[ids] + v("pos_emb")[:s]
    mask_bias = kn.key_mask_bias(pad_mask)
    scaling = cfg.lora_scaling / cfg.lora_rank
    for i, names in enumerate(_layer_names(params, cfg)):
        h, cache = kn.encoder_layer_forward(h, {k: v(name) for k, name in names.items()},
                                            cfg.heads, mask_bias, scaling, keep_prob, rng, train,
                                            kn.scratch(f"layer{i}"))
        if caches is not None:
            caches.append((names, cache))
    fin, xhat, inv = kn.layernorm(h, v("ln_f.gain"), v("ln_f.bias"))
    mask = pad_mask.astype(np.float64)
    counts = np.maximum(mask.sum(axis=1), 1.0)
    pooled = (fin * mask[:, :, None]).sum(axis=1) / counts[:, None]
    logits = kn.finite("loraformer_logits", pooled @ v("head.weight") + v("head.bias"))
    if caches is not None:
        caches.append((mask, counts, xhat, inv, pooled))
    return logits


def make_forward(cfg: LoraFormerConfig):
    """forward(params, token_ids) -> eval-mode logits, an array; no caches kept."""
    def forward(params: ParamSet, token_ids):
        ids = kn.check_ids(token_ids, len(params.get("tok_emb").tensor.data))
        return _run(cfg, params, ids, 1.0, None, False)

    return forward


def make_loss_and_grad(cfg: LoraFormerConfig):
    """loss_and_grad(params, token_ids, labels, rng, grads) -> one training step's mean
    cross-entropy; adapter dropout masks are drawn from `rng`, q's before v's, layer by
    layer.  It writes the gradient of every group named in `grads` into that writable
    array (a `FlatParams.grads` view); the other groups are frozen, and only the
    gradients some trained group needs are computed.  Ids and labels must be in range
    (`models.check_split`)."""
    keep = 1.0 - cfg.lora_dropout

    def loss_and_grad(params: ParamSet, token_ids, labels, rng, grads: dict) -> float:
        caches = []
        logits = _run(cfg, params, token_ids, keep, rng, True, caches)
        loss, g = kn.cross_entropy(logits, labels)
        kn.finite("softmax_cross_entropy", loss)
        (mask, counts, xhat, inv, pooled), layers = caches[-1], caches[:-1]
        # whether the input of each layer, then of the final layernorm, carries a gradient
        reaches = [bool({"tok_emb", "pos_emb"} & grads.keys())]
        for names, _ in layers:
            reaches.append(reaches[-1] or any(name in grads for name in names.values()))

        def put(name, value):
            if name in grads:
                grads[name][...] = value

        put("head.bias", g.sum(axis=0))
        put("head.weight", pooled.T @ g)
        if not (reaches[-1] or {"ln_f.gain", "ln_f.bias"} & grads.keys()):
            return loss
        g = g @ params.get("head.weight").tensor.data.T
        g = mask[:, :, None] * (g / counts[:, None])[:, None, :]
        put("ln_f.gain", (g * xhat).sum(axis=(0, 1)))
        put("ln_f.bias", g.sum(axis=(0, 1)))
        if not reaches[-1]:
            return loss
        g = kn.layernorm_dx(g, params.get("ln_f.gain").tensor.data, xhat, inv)
        for i in reversed(range(len(layers))):
            names, cache = layers[i]
            g, layer_grads = kn.encoder_layer_backward(
                cache, g, lambda k, names=names: names[k] in grads, reaches[i])
            for k, value in layer_grads.items():
                grads[names[k]][...] = value
            if g is None:
                return loss
        n, s = token_ids.shape
        put("tok_emb", kn.row_sums(token_ids, g, params.get("tok_emb").tensor.shape))
        put("pos_emb", kn.row_sums(np.broadcast_to(np.arange(s), (n, s)), g,
                                   params.get("pos_emb").tensor.shape))
        return loss

    return loss_and_grad


def graph_forward(cfg: LoraFormerConfig):
    """The logits as an autodiff graph of ops, each encoder layer the op chain
    `numkit.encoder_layer_ops`, over a leaf per group: the reference of the functions above."""
    scaling = cfg.lora_scaling / cfg.lora_rank
    keep = 1.0 - cfg.lora_dropout

    def forward(params: ParamSet, token_ids, train: bool = False, rng=None):
        leaves = {g.name: nk.leaf(g.tensor.data, name=g.name, trainable=g.trainable)
                  for g in params}
        ids = np.asarray(token_ids)
        batch, seq = ids.shape
        pad_mask = ids != PAD_ID
        pos_ids = np.broadcast_to(np.arange(seq), (batch, seq))
        h = nk.add(nk.embedding_lookup(leaves["tok_emb"], ids),
                   nk.embedding_lookup(leaves["pos_emb"], pos_ids))
        for names in _layer_names(params, cfg):
            h = nk.encoder_layer_ops(h, {k: leaves[name] for k, name in names.items()},
                                     cfg.heads, pad_mask, scaling, keep, rng=rng, train=train)
        h = nk.layernorm(h, leaves["ln_f.gain"], leaves["ln_f.bias"])
        pooled = nk.masked_mean_pool(h, pad_mask.astype(np.float64))
        return nk.add(nk.matmul(pooled, leaves["head.weight"]), leaves["head.bias"])

    return forward


def merge_lora(params: ParamSet, cfg: LoraFormerConfig) -> ParamSet:
    """Fold adapters into the frozen projections: W' = W + (scale) (B A)^T."""
    if params.model_kind != "loraformer":
        raise StructuralError("merge_lora requires a loraformer ParamSet")
    if params.lora_size() == 0:
        raise StructuralError("adapters already merged")
    scaling = cfg.lora_scaling / cfg.lora_rank
    groups = []
    for g in params:
        if g.lora:
            continue
        m = _merge_target(g.name)
        if m is not None and params.has(f"{m}.A"):
            a = params.get(f"{m}.A").tensor.data
            b = params.get(f"{m}.B").tensor.data
            merged = g.tensor.data + scaling * (b @ a).T
            groups.append(ParamGroup(g.name, nk.Tensor(merged), g.trainable, False))
        else:
            groups.append(g)
    return ParamSet(groups, "loraformer")


def _merge_target(name: str):
    # layerN.attn.wq -> layerN.attn.q_lora ; likewise for wv
    if name.endswith(".attn.wq"):
        return name[: -len("wq")] + "q_lora"
    if name.endswith(".attn.wv"):
        return name[: -len("wv")] + "v_lora"
    return None


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
    vocab_size: int = None  # None: the target vocabulary's word count, at least 2
    docs_per_class: int = 100
    doc_length: int = None  # None: the target's max_seq_len
    topic_concentration: float = 0.2

    def __post_init__(self):
        validate.integer("seed", self.seed, minimum=None)
        validate.integer("steps", self.steps, minimum=0)
        object.__setattr__(self, "optimizer",
                           OptimizerCfg("adamw", self.lr, PRETRAIN_WEIGHT_DECAY))
        for name in ("vocab_size", "docs_per_class", "doc_length"):
            if getattr(self, name) is not None:
                validate.integer(name, getattr(self, name))
        validate.positive("topic_concentration", self.topic_concentration)

    def proxy_spec(self, target) -> SyntheticSpec:
        """The proxy corpus's spec for the target dataset; None sizes follow the target.
        A model of the target has one embedding row per entry of its vocabulary and one
        position per token of its `max_seq_len`, so a proxy document must fit both."""
        vocab_size = self.vocab_size or max(target.vocabulary.size - 2, 2)
        if vocab_size + 2 > target.vocabulary.size:  # proxy ids are 2 .. vocab_size + 1
            raise ValueError(f"vocab_size: must be at most {target.vocabulary.size - 2}, the "
                             f"target vocabulary's word count, got {vocab_size}")
        if self.doc_length is not None and self.doc_length > target.max_seq_len:
            raise ValueError(f"doc_length: must be at most {target.max_seq_len}, the target's "
                             f"max_seq_len, got {self.doc_length}")
        return SyntheticSpec(target.num_classes, vocab_size, self.docs_per_class, 1,
                             self.doc_length or target.max_seq_len,
                             self.topic_concentration, self.seed, target.max_seq_len)


def pretrain_backbone(params: ParamSet, cfg: LoraFormerConfig, pre: PretrainConfig, target,
                      batch_size: int) -> ParamSet:
    """Train the backbone for `pre.steps` steps, with a throwaway head, on the proxy
    corpus `pre` specifies for the target, which must share no document with it; then
    freeze it again.  Adapters and the real head are untouched."""
    proxy = generate_synthetic(pre.proxy_spec(target))
    target_docs = _doc_keys(target.train) | _doc_keys(target.test)
    if not target_docs.isdisjoint(_doc_keys(proxy.train)):
        raise DisjointnessError("proxy corpus shares documents with the target dataset")

    # backbone trainable for the proxy phase; adapters dropped (their delta is
    # zero at init and they must not absorb proxy gradients)
    backbone = {g.name: g.tensor for g in params
                if not g.lora and not g.name.startswith("head.")}
    classes = proxy.num_classes  # a throwaway head under the real head's names
    proxy_head = {"head.weight": nk.Tensor(np.zeros((cfg.d_model, classes))),
                  "head.bias": nk.Tensor(np.zeros(classes))}
    flat = nk.FlatParams({**backbone, **proxy_head}, pre.optimizer)
    work = ParamSet([ParamGroup(name, t, True, False) for name, t in flat.tensors.items()],
                    "loraformer")
    kn.check_ids(proxy.train.token_ids, len(backbone["tok_emb"].data))
    kn.check_labels(proxy.train.labels, classes)  # so each batch needs no check
    loss_and_grad = make_loss_and_grad(cfg)

    # epoch after epoch of reshuffled batches, each epoch batched only once it is reached
    epochs = (make_batches(proxy.train, batch_size, nk.sub_seed(pre.seed, "pretrain-epoch", e))
              for e in itertools.count())
    for batch in itertools.islice(itertools.chain.from_iterable(epochs), pre.steps):
        # no adapters, so no dropout mask and no rng
        loss_and_grad(work, batch.token_ids, batch.labels, None, flat.grads)
        adamw_step(flat, flat.grad)
    flat.freeze()
    return params.with_tensors({name: flat.tensors[name] for name in backbone})

"""Forward-only multimodal fusion kernel and training-objective formulas.

Everything runs in 64-bit floats on plain numpy arrays so the oracle
tests can use tight tolerances. The encoder layer follows the post-norm
formulation literally:

    Z' = LN(MultiHead(Z) + Z)
    Z' = MLP(GELU(Z')) + Z'
    Z' = LN(Z')

with the GELU applied before the two-layer MLP, and one shared per-head
projection used for queries, keys, and values. All heads of a layer run
as one batched product over a leading head axis; GELU evaluates the
exact ``math.erf`` element by element.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from .core import ShapeError, ValidationError

LAYER_NORM_EPS = 1e-12


class BundleError(ValidationError):
    """Binary parameter bundle could not be decoded."""


def gelu(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    scaled = (x / math.sqrt(2.0)).ravel().tolist()
    erf = np.fromiter(map(math.erf, scaled), dtype=np.float64, count=len(scaled))
    return 0.5 * x * (1.0 + erf.reshape(x.shape))


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    centred = x - x.mean(axis=-1, keepdims=True)
    var = (centred * centred).mean(axis=-1, keepdims=True)  # what np.var computes
    return centred / np.sqrt(var + LAYER_NORM_EPS) * gamma + beta


def row_softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction stabilization."""
    scores = np.asarray(scores, dtype=np.float64)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Scaled dot-product attention: softmax(QK^T / sqrt(d_k)) V."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ShapeError("attention expects 2-d Q, K, V")
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"Q width {q.shape[1]} != K width {k.shape[1]}")
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"K rows {k.shape[0]} != V rows {v.shape[0]}")
    return _attention(q, k, v)


def _attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``attention`` without shape checks, batched over any leading axes."""
    weights = row_softmax(q @ k.swapaxes(-1, -2) / math.sqrt(q.shape[-1]))
    return weights @ v


Shapes = dict[str, tuple[int, ...]]


def _layer_shapes(d_model: int, n_heads: int, hidden: int) -> Shapes:
    """Encoder-layer arrays in bundle order; ``w_heads`` is shared across Q/K/V."""
    d = d_model
    return {
        "w_heads": (n_heads, d, d // n_heads),
        "w_out": (d, d),
        "ln1_gamma": (d,),
        "ln1_beta": (d,),
        "w_mlp1": (d, hidden),
        "b_mlp1": (hidden,),
        "w_mlp2": (hidden, d),
        "b_mlp2": (d,),
        "ln2_gamma": (d,),
        "ln2_beta": (d,),
    }


def _scale_shapes(
    patch: int, channels: int, height: int, width: int, d_model: int, d_lang: int
) -> Shapes:
    """Per-scale arrays in bundle order; the scale's encoder layers follow them."""
    token_dim = patch * patch * channels
    n_tokens = (height * width) // (patch * patch)
    return {
        "w_patch": (token_dim, d_model),
        "w_back": (d_model, token_dim),
        "w_lang": (d_lang, d_model),
        "visual_type_emb": (d_model,),
        "lang_type_emb": (d_model,),
        "pos_emb": (n_tokens, d_model),
    }


def _check_shapes(params: object, shapes: Shapes) -> None:
    for name, shape in shapes.items():
        actual = getattr(params, name).shape
        if actual != shape:
            raise ShapeError(f"{name} shape {actual}, expected {shape}")


@dataclass
class EncoderLayerParams:
    """Weights for one post-norm encoder layer; shapes in ``_layer_shapes``."""

    w_heads: np.ndarray
    w_out: np.ndarray
    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    w_mlp1: np.ndarray
    b_mlp1: np.ndarray
    w_mlp2: np.ndarray
    b_mlp2: np.ndarray
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray

    def __post_init__(self) -> None:
        h, d, d_head = self.w_heads.shape
        if h * d_head != d:
            raise ValidationError(
                f"head dimension {d_head} x {h} heads must equal model width {d}"
            )
        _check_shapes(self, self._shapes())

    def _shapes(self) -> Shapes:
        return _layer_shapes(self.d_model, self.n_heads, self.mlp_hidden)

    @property
    def d_model(self) -> int:
        return self.w_heads.shape[1]

    @property
    def n_heads(self) -> int:
        return self.w_heads.shape[0]

    @property
    def mlp_hidden(self) -> int:
        return self.w_mlp1.shape[1]


def multi_head(z: np.ndarray, layer: EncoderLayerParams) -> np.ndarray:
    """Concat(head_1, ..., head_h) W_O with the shared per-head projection."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != layer.d_model:
        raise ShapeError(f"multi_head input shape {z.shape}, expected (n, {layer.d_model})")
    projected = z @ layer.w_heads  # (heads, n, d_head)
    heads = _attention(projected, projected, projected)
    return heads.transpose(1, 0, 2).reshape(len(z), layer.d_model) @ layer.w_out


def encoder_layer(z: np.ndarray, layer: EncoderLayerParams) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    z1 = layer_norm(multi_head(z, layer) + z, layer.ln1_gamma, layer.ln1_beta)
    mlp_out = (gelu(z1) @ layer.w_mlp1 + layer.b_mlp1) @ layer.w_mlp2 + layer.b_mlp2
    return layer_norm(mlp_out + z1, layer.ln2_gamma, layer.ln2_beta)


def encoder_stack(z: np.ndarray, layers: Sequence[EncoderLayerParams]) -> np.ndarray:
    for layer in layers:
        z = encoder_layer(z, layer)
    return z


def patchify(feature_map: np.ndarray, patch_size: int) -> np.ndarray:
    """(C, H, W) -> (N, P^2*C) tokens; patches row-major, channel-major within a patch."""
    x = np.asarray(feature_map, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"patchify expects (C, H, W), got shape {x.shape}")
    c, h, w = x.shape
    if patch_size <= 0 or h % patch_size or w % patch_size:
        raise ShapeError(f"H={h}, W={w} not divisible by patch size {patch_size}")
    n_h, n_w = h // patch_size, w // patch_size
    tokens = (
        x.reshape(c, n_h, patch_size, n_w, patch_size)
        .transpose(1, 3, 0, 2, 4)
        .reshape(n_h * n_w, c * patch_size * patch_size)
    )
    return tokens


def regroup(tokens: np.ndarray, height: int, width: int, patch_size: int, channels: int) -> np.ndarray:
    """Exact inverse of ``patchify``."""
    t = np.asarray(tokens, dtype=np.float64)
    if patch_size <= 0 or height % patch_size or width % patch_size:
        raise ShapeError(f"H={height}, W={width} not divisible by patch size {patch_size}")
    n_h, n_w = height // patch_size, width // patch_size
    expected = (n_h * n_w, channels * patch_size * patch_size)
    if t.ndim != 2 or t.shape != expected:
        raise ShapeError(f"regroup tokens shape {t.shape}, expected {expected}")
    return (
        t.reshape(n_h, n_w, channels, patch_size, patch_size)
        .transpose(2, 0, 3, 1, 4)
        .reshape(channels, height, width)
    )


def sinusoidal_positions(n: int, d: int) -> np.ndarray:
    """1-d sinusoidal positional table of shape (n, d)."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    idx = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / d)
    table = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
    return table


@dataclass
class FusionParams:
    """Parameters of a single scale's fusion block (no sharing across scales).

    Array shapes are listed in ``_scale_shapes``.
    """

    patch_size: int
    channels: int
    height: int
    width: int
    w_patch: np.ndarray
    w_back: np.ndarray
    w_lang: np.ndarray
    visual_type_emb: np.ndarray
    lang_type_emb: np.ndarray
    pos_emb: np.ndarray
    layers: list[EncoderLayerParams] = field(default_factory=list)

    def __post_init__(self) -> None:
        if min(self.channels, self.height, self.width) < 1:
            raise ShapeError(f"empty feature map: {self.channels} channels, {self.height}x{self.width}")
        if self.patch_size <= 0 or self.height % self.patch_size or self.width % self.patch_size:
            raise ShapeError(
                f"feature map {self.height}x{self.width} not divisible by patch {self.patch_size}"
            )
        _check_shapes(self, self._shapes())
        for layer in self.layers:
            if layer.d_model != self.d_model:
                raise ShapeError(f"layer width {layer.d_model} != model width {self.d_model}")

    def _shapes(self) -> Shapes:
        return _scale_shapes(
            self.patch_size, self.channels, self.height, self.width, self.d_model, self.d_lang
        )

    @property
    def n_tokens(self) -> int:
        return (self.height * self.width) // (self.patch_size * self.patch_size)

    @property
    def d_model(self) -> int:
        return self.w_patch.shape[1]

    @property
    def d_lang(self) -> int:
        return self.w_lang.shape[0]


def fuse_single_scale(
    feature_map: np.ndarray,
    lang_tokens: np.ndarray,
    params: FusionParams,
) -> np.ndarray:
    fmap = np.asarray(feature_map, dtype=np.float64)
    lang = np.asarray(lang_tokens, dtype=np.float64)
    if lang.size == 0:
        lang = lang.reshape(0, params.d_lang)
    if lang.ndim != 2 or lang.shape[1] != params.d_lang:
        raise ShapeError(f"language tokens shape {lang.shape}, expected (L, {params.d_lang})")

    visual = patchify(fmap, params.patch_size) @ params.w_patch
    visual = visual + params.visual_type_emb + params.pos_emb
    projected_lang = lang @ params.w_lang + params.lang_type_emb

    z = np.concatenate([visual, projected_lang], axis=0)
    z = encoder_stack(z, params.layers)
    fused_visual = z[: params.n_tokens]
    return regroup(
        fused_visual @ params.w_back,
        params.height,
        params.width,
        params.patch_size,
        params.channels,
    )


def fuse(
    feature_maps: Sequence[np.ndarray],
    lang_tokens: np.ndarray,
    scales: Sequence[FusionParams],
) -> list[np.ndarray]:
    """Fuse per-scale feature maps with shared language tokens.

    Each scale runs independently with its own parameters; output shapes
    equal input shapes.
    """
    if len(feature_maps) != len(scales):
        raise ShapeError(
            f"{len(feature_maps)} feature maps for {len(scales)} scale parameter sets"
        )
    outputs = []
    for index, (fmap, params) in enumerate(zip(feature_maps, scales)):
        arr = np.asarray(fmap, dtype=np.float64)
        expected = (params.channels, params.height, params.width)
        if arr.shape != expected:
            raise ShapeError(f"scale {index}: feature map shape {arr.shape}, expected {expected}")
        outputs.append(fuse_single_scale(arr, lang_tokens, params))
    return outputs


def smooth_l1(delta: np.ndarray) -> np.ndarray:
    d = np.abs(np.asarray(delta, dtype=np.float64))
    return np.where(d < 1.0, 0.5 * d * d, d - 0.5)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean softmax cross-entropy over rows; targets are class indices."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise ShapeError(f"cross_entropy: logits {logits.shape} vs targets {targets.shape}")
    if logits.shape[0] == 0:
        return 0.0
    log_probs = _log_softmax(logits)
    picked = log_probs[np.arange(len(targets)), targets]
    return float(-picked.mean())


def loss_total(
    cls_probs: np.ndarray,
    cls_targets: np.ndarray,
    boxes: np.ndarray,
    box_targets: np.ndarray,
    noun_logits: np.ndarray,
    noun_targets: np.ndarray,
    verb_logits: np.ndarray,
    verb_targets: np.ndarray,
    ttc_pred: np.ndarray,
    ttc_gt: np.ndarray,
    lam: float = 11.0,
    n_cls: int = 1,
    n_reg: int = 1,
) -> float:
    """Sum of box objective, noun and verb cross-entropies, and TTC error.

    The box objective combines binary cross-entropy on objectness
    probabilities (normalized by ``n_cls``) with smooth-L1 regression on
    box offsets counted only for foreground targets (weighted by
    ``lam / n_reg``). TTC uses mean absolute error.
    """
    if not all(0 < v < math.inf for v in (lam, n_cls, n_reg)):  # NaN fails every comparison
        raise ValidationError("lam, n_cls and n_reg must all be positive and finite")
    probs = np.asarray(cls_probs, dtype=np.float64)
    p_star = np.asarray(cls_targets, dtype=np.float64)
    if probs.shape != p_star.shape:
        raise ShapeError(f"cls shapes differ: {probs.shape} vs {p_star.shape}")
    if np.any(probs <= 0.0) or np.any(probs >= 1.0):
        raise ValidationError("objectness probabilities must lie strictly inside (0, 1)")
    if not np.all(np.isin(p_star, (0.0, 1.0))):
        raise ValidationError("objectness targets must be 0 or 1")

    bce = -(p_star * np.log(probs) + (1.0 - p_star) * np.log(1.0 - probs))
    loss_cls = float(bce.sum()) / n_cls

    b = np.asarray(boxes, dtype=np.float64)
    b_star = np.asarray(box_targets, dtype=np.float64)
    if b.shape != b_star.shape or b.ndim != 2 or b.shape[1] != 4:
        raise ShapeError(f"box shapes: {b.shape} vs {b_star.shape}, expected (n, 4)")
    if b.shape[0] != probs.shape[0]:
        raise ShapeError("one objectness probability required per box")
    per_box_reg = smooth_l1(b - b_star).sum(axis=1)
    loss_reg = lam / n_reg * float((p_star * per_box_reg).sum())

    loss_noun = cross_entropy(noun_logits, noun_targets)
    loss_verb = cross_entropy(verb_logits, verb_targets)

    t_pred = np.asarray(ttc_pred, dtype=np.float64)
    t_gt = np.asarray(ttc_gt, dtype=np.float64)
    if t_pred.shape != t_gt.shape:
        raise ShapeError(f"ttc shapes differ: {t_pred.shape} vs {t_gt.shape}")
    loss_ttc = float(np.abs(t_pred - t_gt).mean()) if t_pred.size else 0.0

    return loss_cls + loss_reg + loss_noun + loss_verb + loss_ttc


def random_fusion_params(
    seed: int,
    scale_shapes: Sequence[tuple[int, int, int, int]] = ((4, 3, 16, 16), (4, 3, 8, 8), (2, 3, 8, 8), (1, 3, 4, 4)),
    d_model: int = 16,
    d_lang: int = 12,
    n_heads: int = 4,
    n_layers: int = 2,
    mlp_hidden: int | None = None,
) -> list[FusionParams]:
    """Small random parameter bundle, one entry per (P, C, H, W) scale."""
    if d_model % n_heads:
        raise ValidationError(f"model width {d_model} not divisible by {n_heads} heads")
    hidden = 4 * d_model if mlp_hidden is None else mlp_hidden
    rng = np.random.default_rng(seed)

    def init(shapes: Shapes) -> dict[str, np.ndarray]:
        arrays = {}
        for name, shape in shapes.items():
            if name.endswith("_gamma"):
                arrays[name] = np.ones(shape)
            elif name.endswith("_beta"):
                arrays[name] = np.zeros(shape)
            elif name == "pos_emb":
                arrays[name] = sinusoidal_positions(*shape)
            else:
                arrays[name] = rng.normal(0.0, 0.02 if name.startswith("b_") else 0.2, shape)
        return arrays

    scales = []
    for dims in scale_shapes:
        layers = [
            EncoderLayerParams(**init(_layer_shapes(d_model, n_heads, hidden)))
            for _ in range(n_layers)
        ]
        scales.append(
            FusionParams(*dims, **init(_scale_shapes(*dims, d_model, d_lang)), layers=layers)
        )
    return scales


def with_zero_embeddings(scales: Sequence[FusionParams]) -> list[FusionParams]:
    """Copy of the bundle with positional and type embeddings zeroed."""
    out = []
    for params in scales:
        out.append(
            replace(
                params,
                visual_type_emb=np.zeros_like(params.visual_type_emb),
                lang_type_emb=np.zeros_like(params.lang_type_emb),
                pos_emb=np.zeros_like(params.pos_emb),
            )
        )
    return out


_MAGIC = b"CFUS"
_VERSION = 1
# magic, version, d_model, d_lang, n_heads, n_layers, mlp hidden, n_scales
_HEADER = struct.Struct("<4s7I")
_DIMS = struct.Struct("<4I")  # patch, channels, height, width per scale


def _scale_arrays(params: FusionParams) -> Iterator[np.ndarray]:
    for name in params._shapes():
        yield getattr(params, name)
    for layer in params.layers:
        for name in layer._shapes():
            yield getattr(layer, name)


def save_params(path: str, scales: Sequence[FusionParams]) -> None:
    """Write a bundle: header (dims per scale) then little-endian f64 in declared order."""
    if not scales:
        raise ValidationError("cannot save an empty parameter bundle")
    d_model = scales[0].d_model
    d_lang = scales[0].d_lang
    n_heads = scales[0].layers[0].n_heads if scales[0].layers else 1
    n_layers = len(scales[0].layers)
    hidden = scales[0].layers[0].mlp_hidden if scales[0].layers else 0
    for params in scales:
        widths = (params.d_model, params.d_lang, len(params.layers))
        if widths != (d_model, d_lang, n_layers) or any(
            (layer.n_heads, layer.mlp_hidden) != (n_heads, hidden) for layer in params.layers
        ):
            raise ValidationError(
                "all layers of all scales in a bundle must agree on widths, depth and head count"
            )
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(_MAGIC, _VERSION, d_model, d_lang, n_heads, n_layers, hidden, len(scales))
        )
        for params in scales:
            fh.write(_DIMS.pack(params.patch_size, params.channels, params.height, params.width))
        for params in scales:
            for arr in _scale_arrays(params):
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_params(path: str) -> list[FusionParams]:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _decode_params(data)
    except ValidationError as exc:  # name the bundle, keeping the error's type
        raise type(exc)(f"{path}: {exc}") from None


def _decode_params(data: bytes) -> list[FusionParams]:
    if data[:4] != _MAGIC:
        raise BundleError("not a fusion parameter bundle (bad magic)")
    if len(data) < _HEADER.size:
        raise BundleError("bundle header truncated")
    _, version, d_model, d_lang, n_heads, n_layers, hidden, n_scales = _HEADER.unpack_from(data)
    if version != _VERSION:
        raise BundleError(f"unsupported bundle version {version}")
    if n_scales == 0:
        raise BundleError("bundle holds no scales")
    if n_heads == 0:
        raise BundleError("bundle declares zero attention heads")
    if d_model == 0:
        # every layer then reads no bytes, so n_layers alone would bound the loop
        raise BundleError("bundle declares zero model width")
    offset = _HEADER.size + _DIMS.size * n_scales
    if offset > len(data):
        raise BundleError("bundle header truncated")
    dims = list(_DIMS.iter_unpack(data[_HEADER.size : offset]))
    if any(0 in scale_dims for scale_dims in dims):
        raise BundleError("bundle declares a zero patch size or an empty feature map")
    # one pass over every value after the header, before any array is built
    # (after them, the freed mask made loads of a 5.6 MB bundle 3-4x slower)
    values = np.frombuffer(data, "<f8", count=(len(data) - offset) // 8, offset=offset)
    if not np.isfinite(values).all():
        raise BundleError("bundle holds a NaN or infinite value")

    def take(shapes: Shapes) -> dict[str, np.ndarray]:
        nonlocal offset
        arrays = {}
        for name, shape in shapes.items():
            end = offset + 8 * math.prod(shape)
            if end > len(data):
                raise BundleError("bundle truncated")
            raw = np.frombuffer(data[offset:end], dtype="<f8")
            arrays[name] = raw.astype(np.float64).reshape(shape)
            offset = end
        return arrays

    scales = []
    for scale_dims in dims:
        arrays = take(_scale_shapes(*scale_dims, d_model, d_lang))
        layers = [
            EncoderLayerParams(**take(_layer_shapes(d_model, n_heads, hidden)))
            for _ in range(n_layers)
        ]
        scales.append(FusionParams(*scale_dims, **arrays, layers=layers))
    if offset != len(data):
        raise BundleError(f"{len(data) - offset} trailing bytes in bundle")
    return scales

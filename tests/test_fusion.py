import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from context_forge import checks, fusion
from context_forge.checks import run_invariant_checks
from context_forge.cli import main
from context_forge.core import ShapeError, ValidationError
from context_forge.fusion import (
    BundleError,
    EncoderLayerParams,
    attention,
    encoder_layer,
    encoder_stack,
    fuse,
    gelu,
    load_params,
    loss_total,
    multi_head,
    patchify,
    random_fusion_params,
    regroup,
    row_softmax,
    save_params,
    sinusoidal_positions,
    with_zero_embeddings,
)
from context_forge.synth import (
    reference_attention,
    reference_loss_terms,
    reference_multi_head,
)

RNG = np.random.default_rng(20240)

# Header offsets: magic (4), then u32 version, d_model, d_lang, n_heads,
# n_layers, hidden, n_scales, then four u32 (P, C, H, W) per scale.
D_MODEL_AT, N_HEADS_AT, N_LAYERS_AT, HIDDEN_AT, N_SCALES_AT, DIMS_AT = 8, 16, 20, 24, 28, 32


def patched(data, offset, value):
    out = bytearray(data)
    struct.pack_into("<I", out, offset, value)
    return bytes(out)


def zero_width_huge_depth(data):
    """48 bytes declaring one scale of 2^32 - 1 layers, each of which reads
    no bytes because model and MLP widths are 0."""
    header = {D_MODEL_AT: 0, N_LAYERS_AT: 0xFFFFFFFF, HIDDEN_AT: 0, N_SCALES_AT: 1}
    for offset, value in header.items():
        data = patched(data, offset, value)
    return data[: DIMS_AT + 16]


def write_one_scale_bundle(path, dims, d_model=16, d_lang=12, n_heads=4, n_layers=1, hidden=64):
    """Write a bundle of one (P, C, H, W) scale holding exactly as many values
    as its header declares, even for dims FusionParams refuses to build."""
    shapes = [*fusion._scale_shapes(*dims, d_model, d_lang).values()]
    shapes += n_layers * [*fusion._layer_shapes(d_model, n_heads, hidden).values()]
    values = np.ones(sum(math.prod(shape) for shape in shapes), dtype="<f8")
    header = (fusion._MAGIC, fusion._VERSION, d_model, d_lang, n_heads, n_layers, hidden, 1)
    path.write_bytes(fusion._HEADER.pack(*header) + fusion._DIMS.pack(*dims) + values.tobytes())


MALFORMED_HEADERS = {
    "cut-after-10-bytes": lambda data: data[:10],
    "dims-truncated": lambda data: data[: DIMS_AT + 20],
    "n-scales-huge": lambda data: patched(data, N_SCALES_AT, 0xFFFFFFFF),
    "zero-heads": lambda data: patched(data, N_HEADS_AT, 0),
    "zero-patch": lambda data: patched(data, DIMS_AT, 0),
    "zero-scales": lambda data: patched(data[:DIMS_AT], N_SCALES_AT, 0),
    "zero-width-huge-depth": zero_width_huge_depth,
}

# sha256 of save_params(random_fusion_params(seed, **config)); pins the bundle format.
BUNDLE_SHA256 = [
    (0, {}, "1d456df99fba7d03cefcc8f6540a53a50a0238d90b8997583f76f620299311ac"),
    (1, {}, "6967456e379d06cf15f81463c20fd52fee4115ee5f63c1a10abfd350788a1540"),
    (5, {}, "5f58aaf7ca5082642ed836e1a786d47021f1b7d5a6b10e48aee4810c662146d5"),
    (
        0,
        dict(
            scale_shapes=((4, 3, 32, 32), (4, 3, 16, 16), (2, 3, 16, 16), (1, 3, 8, 8)),
            d_model=64,
            n_heads=8,
            n_layers=4,
        ),
        "886e7998c02fedbfff7d0f26012ebce5ef39814fc4f637d36527ec967a46889a",
    ),
]


def identity_layer(d, hidden=None, seed=0):
    rng = np.random.default_rng(seed)
    hidden = hidden or 4 * d
    return EncoderLayerParams(
        w_heads=np.eye(d)[None, :, :],
        w_out=np.eye(d),
        ln1_gamma=np.ones(d),
        ln1_beta=np.zeros(d),
        w_mlp1=rng.normal(0, 0.3, (d, hidden)),
        b_mlp1=np.zeros(hidden),
        w_mlp2=rng.normal(0, 0.3, (hidden, d)),
        b_mlp2=np.zeros(d),
        ln2_gamma=np.ones(d),
        ln2_beta=np.zeros(d),
    )


def random_layer(d, h, seed=0):
    rng = np.random.default_rng(seed)
    return EncoderLayerParams(
        w_heads=rng.normal(0, 0.3, (h, d, d // h)),
        w_out=rng.normal(0, 0.3, (d, d)),
        ln1_gamma=np.ones(d),
        ln1_beta=np.zeros(d),
        w_mlp1=rng.normal(0, 0.3, (d, 4 * d)),
        b_mlp1=rng.normal(0, 0.05, 4 * d),
        w_mlp2=rng.normal(0, 0.3, (4 * d, d)),
        b_mlp2=rng.normal(0, 0.05, d),
        ln2_gamma=np.ones(d),
        ln2_beta=np.zeros(d),
    )


class TestAttention:
    def test_single_row_returns_v(self):
        q, k = RNG.normal(size=(1, 4)), RNG.normal(size=(1, 4))
        v = RNG.normal(size=(1, 4))
        assert np.allclose(attention(q, k, v), v, atol=1e-15)

    def test_identical_keys_average_v(self):
        k = np.tile(RNG.normal(size=(1, 3)), (5, 1))
        v = RNG.normal(size=(5, 3))
        out = attention(RNG.normal(size=(2, 3)), k, v)
        assert np.allclose(out, np.tile(v.mean(axis=0), (2, 1)), atol=1e-12)

    def test_matches_double_loop_reference(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            q, k, v = (rng.normal(0, 2, (3, 4)) for _ in range(3))
            assert np.abs(attention(q, k, v) - reference_attention(q, k, v)).max() <= 1e-12

    def test_rows_are_convex_combinations(self):
        v = RNG.normal(size=(6, 5))
        out = attention(RNG.normal(size=(4, 5)), RNG.normal(size=(6, 5)), v)
        assert np.all(out >= v.min(axis=0) - 1e-12)
        assert np.all(out <= v.max(axis=0) + 1e-12)

    def test_softmax_rows_sum_to_one(self):
        weights = row_softmax(RNG.normal(0, 10, (7, 9)))
        assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-6

    def test_softmax_handles_large_scores(self):
        weights = row_softmax(np.array([[1e6, 1e6 + 1.0]]))
        assert np.isfinite(weights).all()
        assert weights.sum() == pytest.approx(1.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            attention(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 4)))

    def test_batched_input_rejected(self):
        # the public name stays 2-d; multi_head batches its heads privately
        with pytest.raises(ShapeError):
            attention(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)), np.zeros((2, 3, 4)))


class TestMultiHead:
    def test_single_head_identity_collapses_to_attention(self):
        d = 4
        layer = identity_layer(d)
        z = RNG.normal(size=(5, d))
        assert np.allclose(multi_head(z, layer), attention(z, z, z), atol=1e-15)

    def test_zero_input_gives_zero_output(self):
        layer = random_layer(6, 2)
        assert np.allclose(multi_head(np.zeros((3, 6)), layer), 0.0)

    def test_two_heads_match_sequential_reference(self):
        layer = random_layer(8, 2, seed=3)
        z = np.random.default_rng(4).normal(size=(5, 8))
        expected = reference_multi_head(z, layer.w_heads, layer.w_out)
        assert np.abs(multi_head(z, layer) - expected).max() <= 1e-12

    @pytest.mark.parametrize("d, h", [(64, 8), (64, 1), (8, 1)])
    def test_matches_sequential_reference(self, d, h):
        # 67 rows: a large-bundle scale of 64 patch tokens plus 3 language tokens
        layer = random_layer(d, h, seed=d + h)
        z = np.random.default_rng(h).normal(size=(67, d))
        expected = reference_multi_head(z, layer.w_heads, layer.w_out)
        assert np.abs(multi_head(z, layer) - expected).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 67])
    def test_bit_identical_to_per_head_loop(self, n):
        layer = random_layer(64, 8, seed=n)
        z = np.random.default_rng(n).normal(size=(n, 64))
        heads = []
        for w in layer.w_heads:
            projected = z @ w
            heads.append(attention(projected, projected, projected))
        assert np.array_equal(multi_head(z, layer), np.concatenate(heads, axis=1) @ layer.w_out)

    def test_head_width_must_divide(self):
        with pytest.raises(ValidationError):
            EncoderLayerParams(
                w_heads=np.zeros((3, 8, 2)),
                w_out=np.eye(8),
                ln1_gamma=np.ones(8),
                ln1_beta=np.zeros(8),
                w_mlp1=np.zeros((8, 32)),
                b_mlp1=np.zeros(32),
                w_mlp2=np.zeros((32, 8)),
                b_mlp2=np.zeros(8),
                ln2_gamma=np.ones(8),
                ln2_beta=np.zeros(8),
            )


GELU_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 0.84375, -0.84375, 1.25, -1.25,
    6.0, -6.0, 40.0, -40.0, math.inf, -math.inf, math.nan,
]


def scalar_gelu(x: float) -> float:
    return 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))


class TestGelu:
    @staticmethod
    def assert_bits_equal(got, want):
        want = np.asarray(want, dtype=np.float64)
        assert got.shape == want.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))

    def test_bit_identical_to_scalar_formula_on_edge_values(self):
        with np.errstate(invalid="ignore"):  # -inf * 0 is nan, as in the scalar formula
            got = gelu(np.array(GELU_EDGES))
        self.assert_bits_equal(got, [scalar_gelu(x) for x in GELU_EDGES])

    def test_bit_identical_on_random_2d_input(self):
        x = np.random.default_rng(5).normal(0.0, 3.0, (7, 13))
        want = [[scalar_gelu(v) for v in row] for row in x.tolist()]
        self.assert_bits_equal(gelu(x), want)
        self.assert_bits_equal(gelu(x.T), np.array(want).T)  # non-contiguous input

    def test_zero_dim_and_empty_inputs(self):
        self.assert_bits_equal(gelu(np.float64(1.25)), scalar_gelu(1.25))
        self.assert_bits_equal(gelu(-0.84375), scalar_gelu(-0.84375))
        self.assert_bits_equal(gelu(np.zeros((0, 5))), np.zeros((0, 5)))


def test_layer_norm_bit_identical_to_np_var_formula():
    x = np.random.default_rng(6).normal(0.0, 3.0, (67, 64))
    gamma, beta = np.random.default_rng(7).normal(size=(2, 64))
    mean, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
    expected = (x - mean) / np.sqrt(var + fusion.LAYER_NORM_EPS) * gamma + beta
    assert np.array_equal(fusion.layer_norm(x, gamma, beta), expected)


class TestTracedNames:
    """The benchmark's traced run times kernel layers by rebinding these module globals."""

    def counted(self, monkeypatch, owner, name, calls):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name].append([np.ndim(a) for a in args[:3]])
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    def test_encoder_layer_reaches_gelu_and_multi_head(self, monkeypatch):
        calls = {"gelu": [], "multi_head": [], "attention": []}
        for name in calls:
            self.counted(monkeypatch, fusion, name, calls)
        encoder_stack(RNG.normal(size=(5, 16)), random_fusion_params(0)[0].layers)
        assert len(calls["gelu"]) == len(calls["multi_head"]) == 2
        # the tracer's flops hook unpacks 2-d shapes; heads must not go through it batched
        assert all(ndims == [2, 2, 2] for ndims in calls["attention"])

    def test_checks_reach_attention(self, monkeypatch):
        calls = {"attention": []}
        self.counted(monkeypatch, checks, "attention", calls)
        assert all(r.passed for r in run_invariant_checks(random_fusion_params(0), seed=1))
        assert len(calls["attention"]) == 40


class TestEquivarianceGuard:
    def patch_kernel(self, monkeypatch, kernel):
        # fuse() looks the kernel up in fusion, the per-scale check in checks
        monkeypatch.setattr(fusion, "fuse_single_scale", kernel)
        monkeypatch.setattr(checks, "fuse_single_scale", kernel)

    def test_position_dependent_kernel_fails(self, monkeypatch, capsys):
        real = fusion.fuse_single_scale

        def broken(fmap, lang, params):
            out = real(fmap, lang, params)
            return out + np.arange(out.shape[1])[:, None]  # adds a row-index term

        self.patch_kernel(monkeypatch, broken)
        results = {r.name: r.passed for r in run_invariant_checks(random_fusion_params(0), seed=2)}
        assert results.pop("permutation-equivariance") is False
        assert all(results.values())
        assert main(["fuse-check", "--seed", "2"]) == 3
        assert "FAIL permutation-equivariance: " in capsys.readouterr().out

    def test_nan_difference_fails(self):
        scales = random_fusion_params(0)
        scales[0].w_patch.fill(math.nan)
        results = {r.name: r for r in run_invariant_checks(scales, seed=0)}
        result = results["permutation-equivariance"]
        assert not result.passed
        assert result.detail.startswith("max |diff| = nan")

    def test_equivariant_kernel_passes(self, monkeypatch):
        real = fusion.fuse_single_scale
        self.patch_kernel(monkeypatch, lambda fmap, lang, params: 2.0 * real(fmap, lang, params))
        assert all(r.passed for r in run_invariant_checks(random_fusion_params(0), seed=2))

    def test_empty_bundle_rejected(self):
        with pytest.raises(ValidationError, match="empty bundle"):
            run_invariant_checks([])


class TestEncoderLayer:
    @given(n=st.integers(1, 6), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_shape_preserved(self, n, seed):
        layer = random_layer(8, 2, seed=seed)
        z = np.random.default_rng(seed).normal(size=(n, 8))
        assert encoder_layer(z, layer).shape == z.shape

    def test_final_rows_are_normalized(self):
        layer = random_layer(8, 2, seed=9)
        out = encoder_layer(np.random.default_rng(1).normal(size=(5, 8)), layer)
        assert np.abs(out.mean(axis=1)).max() <= 1e-6
        assert np.abs(out.var(axis=1) - 1.0).max() <= 1e-6

    def test_stacking_equals_composition(self):
        layers = [random_layer(8, 2, seed=s) for s in (11, 12)]
        z = np.random.default_rng(2).normal(size=(4, 8))
        composed = encoder_layer(encoder_layer(z, layers[0]), layers[1])
        assert np.array_equal(encoder_stack(z, layers), composed)


class TestPatchify:
    def test_unit_patch_preserves_values(self):
        x = np.arange(4.0).reshape(1, 2, 2)
        tokens = patchify(x, 1)
        assert tokens.shape == (4, 1)
        assert np.array_equal(tokens.ravel(), [0.0, 1.0, 2.0, 3.0])

    def test_token_count(self):
        tokens = patchify(RNG.normal(size=(2, 4, 4)), 2)
        assert tokens.shape == (4, 8)

    def test_channel_major_within_patch(self):
        x = np.zeros((2, 2, 2))
        x[0] = [[1, 2], [3, 4]]
        x[1] = [[5, 6], [7, 8]]
        tokens = patchify(x, 2)
        assert np.array_equal(tokens, [[1, 2, 3, 4, 5, 6, 7, 8]])

    def test_indivisible_shape_rejected(self):
        with pytest.raises(ShapeError):
            patchify(np.zeros((1, 5, 4)), 2)
        with pytest.raises(ShapeError):
            regroup(np.zeros((4, 4)), 5, 4, 2, 1)

    @given(
        p=st.sampled_from([4, 4, 2, 1]),
        c=st.integers(1, 3),
        hh=st.integers(1, 4),
        ww=st.integers(1, 4),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_bit_exact(self, p, c, hh, ww, seed):
        x = np.random.default_rng(seed).normal(size=(c, hh * p, ww * p))
        assert np.array_equal(regroup(patchify(x, p), hh * p, ww * p, p, c), x)


class TestFuse:
    def test_output_shapes_equal_input_shapes(self):
        scales = random_fusion_params(0)
        maps = [RNG.normal(size=(s.channels, s.height, s.width)) for s in scales]
        lang = RNG.normal(size=(3, scales[0].d_lang))
        outs = fuse(maps, lang, scales)
        assert [o.shape for o in outs] == [m.shape for m in maps]

    def test_empty_language_tokens(self):
        scales = random_fusion_params(1)
        maps = [RNG.normal(size=(s.channels, s.height, s.width)) for s in scales]
        outs = fuse(maps, np.zeros((0, scales[0].d_lang)), scales)
        assert [o.shape for o in outs] == [m.shape for m in maps]

    def test_language_changes_visual_output(self):
        scales = random_fusion_params(2)
        maps = [RNG.normal(size=(s.channels, s.height, s.width)) for s in scales]
        a = fuse(maps, RNG.normal(size=(2, scales[0].d_lang)), scales)
        b = fuse(maps, RNG.normal(size=(2, scales[0].d_lang)), scales)
        assert any(not np.allclose(x, y) for x, y in zip(a, b))

    def test_scale_indexed_shape_error(self):
        scales = random_fusion_params(3)
        maps = [RNG.normal(size=(s.channels, s.height, s.width)) for s in scales]
        maps[2] = RNG.normal(size=(1, 3, 3))
        with pytest.raises(ShapeError, match="scale 2"):
            fuse(maps, np.zeros((0, scales[0].d_lang)), scales)

    def test_permutation_equivariance_with_zero_embeddings(self):
        scales = with_zero_embeddings(random_fusion_params(4))
        params = scales[0]
        rng = np.random.default_rng(8)
        fmap = rng.normal(size=(params.channels, params.height, params.width))
        lang = rng.normal(size=(2, params.d_lang))
        perm = rng.permutation(params.n_tokens)

        def permute(m):
            return regroup(
                patchify(m, params.patch_size)[perm],
                params.height,
                params.width,
                params.patch_size,
                params.channels,
            )

        base = fuse([fmap], lang, [params])[0]
        shuffled = fuse([permute(fmap)], lang, [params])[0]
        assert np.abs(shuffled - permute(base)).max() <= 1e-6

    def test_position_embeddings_break_equivariance(self):
        scales = random_fusion_params(5)[:1]
        params = scales[0]
        rng = np.random.default_rng(9)
        fmap = rng.normal(size=(params.channels, params.height, params.width))
        lang = rng.normal(size=(2, params.d_lang))
        perm = np.roll(np.arange(params.n_tokens), 1)

        def permute(m):
            return regroup(
                patchify(m, params.patch_size)[perm],
                params.height,
                params.width,
                params.patch_size,
                params.channels,
            )

        base = fuse([fmap], lang, scales)[0]
        shuffled = fuse([permute(fmap)], lang, scales)[0]
        assert not np.allclose(shuffled, permute(base), atol=1e-6)


class TestSinusoidalPositions:
    def test_first_row_is_zero_one_pattern(self):
        table = sinusoidal_positions(3, 6)
        assert np.allclose(table[0], [0, 1, 0, 1, 0, 1])

    def test_values_bounded(self):
        table = sinusoidal_positions(16, 8)
        assert np.abs(table).max() <= 1.0


class TestLoss:
    def _perfect(self):
        probs = np.array([1.0 - 1e-12, 1e-12])
        targets = np.array([1.0, 0.0])
        boxes = np.array([[0.0, 0.0, 1.0, 1.0], [2.0, 2.0, 3.0, 3.0]])
        big = 50.0
        noun_logits = np.array([[big, 0.0], [0.0, big]])
        verb_logits = np.array([[big, 0.0], [0.0, big]])
        return dict(
            cls_probs=probs,
            cls_targets=targets,
            boxes=boxes,
            box_targets=boxes.copy(),
            noun_logits=noun_logits,
            noun_targets=np.array([0, 1]),
            verb_logits=verb_logits,
            verb_targets=np.array([0, 1]),
            ttc_pred=np.array([0.5, 1.0]),
            ttc_gt=np.array([0.5, 1.0]),
            lam=11.0,
            n_cls=2,
            n_reg=2,
        )

    def test_perfect_predictions_drive_loss_to_zero(self):
        assert loss_total(**self._perfect()) == pytest.approx(0.0, abs=1e-9)

    def test_half_probability_costs_ln2_per_term(self):
        total = loss_total(
            cls_probs=np.array([0.5]),
            cls_targets=np.array([1.0]),
            boxes=np.zeros((1, 4)),
            box_targets=np.zeros((1, 4)),
            noun_logits=np.zeros((1, 2)),
            noun_targets=np.array([0]),
            verb_logits=np.zeros((1, 2)),
            verb_targets=np.array([0]),
            ttc_pred=np.array([1.0]),
            ttc_gt=np.array([1.0]),
            lam=11.0,
            n_cls=1,
            n_reg=1,
        )
        assert total == pytest.approx(3 * math.log(2), abs=1e-12)

    def test_matches_termwise_reference(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            n_boxes = int(rng.integers(1, 7))
            n_rows = int(rng.integers(1, 7))
            kwargs = dict(
                cls_probs=rng.uniform(0.02, 0.98, n_boxes),
                cls_targets=rng.integers(0, 2, n_boxes).astype(float),
                boxes=rng.normal(0, 2, (n_boxes, 4)),
                box_targets=rng.normal(0, 2, (n_boxes, 4)),
                noun_logits=rng.normal(0, 3, (n_rows, 4)),
                noun_targets=rng.integers(0, 4, n_rows),
                verb_logits=rng.normal(0, 3, (n_rows, 3)),
                verb_targets=rng.integers(0, 3, n_rows),
                ttc_pred=rng.uniform(0, 2, n_rows),
                ttc_gt=rng.uniform(0, 2, n_rows),
                lam=11.0,
                n_cls=128,
                n_reg=64,
            )
            total = loss_total(**kwargs)
            terms = reference_loss_terms(**kwargs)
            assert abs(total - sum(terms.values())) <= 1e-12

    def test_probability_guard(self):
        bad = self._perfect()
        bad["cls_probs"] = np.array([1.0, 0.5])
        with pytest.raises(ValidationError):
            loss_total(**bad)
        bad["cls_probs"] = np.array([0.0, 0.5])
        with pytest.raises(ValidationError):
            loss_total(**bad)

    def test_regression_only_counts_foreground(self):
        kwargs = self._perfect()
        kwargs["boxes"] = kwargs["boxes"] + np.array([[0.0] * 4, [10.0] * 4])
        # second box is background (target 0), so its offset is free
        assert loss_total(**kwargs) == pytest.approx(0.0, abs=1e-9)

    def test_lambda_scales_regression(self):
        kwargs = self._perfect()
        kwargs["boxes"] = kwargs["boxes"] + np.array([[0.5] * 4, [0.0] * 4])
        low = loss_total(**{**kwargs, "lam": 1.0})
        high = loss_total(**{**kwargs, "lam": 11.0})
        assert high == pytest.approx(11 * low, rel=1e-9)

    def test_invalid_lambda_rejected(self):
        kwargs = self._perfect()
        with pytest.raises(ValidationError):
            loss_total(**{**kwargs, "lam": 0.0})

    @pytest.mark.parametrize("name", ["lam", "n_cls", "n_reg"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, name, value):
        with pytest.raises(ValidationError, match="^lam, n_cls and n_reg must all be positive and finite$"):
            loss_total(**{**self._perfect(), name: value})


class TestParameterBundle:
    def test_save_load_roundtrip(self, tmp_path):
        scales = random_fusion_params(77)
        path = tmp_path / "params.bin"
        save_params(str(path), scales)
        loaded = load_params(str(path))
        assert len(loaded) == len(scales)
        for a, b in zip(scales, loaded):
            assert (a.patch_size, a.channels, a.height, a.width) == (
                b.patch_size,
                b.channels,
                b.height,
                b.width,
            )
            assert np.array_equal(a.w_patch, b.w_patch)
            assert np.array_equal(a.pos_emb, b.pos_emb)
            for la, lb in zip(a.layers, b.layers):
                assert np.array_equal(la.w_heads, lb.w_heads)
                assert np.array_equal(la.b_mlp2, lb.b_mlp2)

    def test_forward_pass_identical_after_roundtrip(self, tmp_path):
        scales = random_fusion_params(78)
        path = tmp_path / "params.bin"
        save_params(str(path), scales)
        loaded = load_params(str(path))
        rng = np.random.default_rng(0)
        maps = [rng.normal(size=(s.channels, s.height, s.width)) for s in scales]
        lang = rng.normal(size=(2, scales[0].d_lang))
        for a, b in zip(fuse(maps, lang, scales), fuse(maps, lang, loaded)):
            assert np.array_equal(a, b)

    def test_truncated_bundle_rejected(self, tmp_path):
        scales = random_fusion_params(79)
        path = tmp_path / "params.bin"
        save_params(str(path), scales)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValidationError):
            load_params(str(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "params.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValidationError):
            load_params(str(path))

    @pytest.mark.parametrize("seed,config,digest", BUNDLE_SHA256)
    def test_bundle_bytes_pinned(self, tmp_path, seed, config, digest):
        path = tmp_path / "params.bin"
        save_params(str(path), random_fusion_params(seed, **config))
        data = path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
        save_params(str(path), load_params(str(path)))
        assert path.read_bytes() == data

    @pytest.mark.parametrize("corrupt", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS.keys())
    def test_malformed_header_rejected(self, tmp_path, corrupt):
        path = tmp_path / "params.bin"
        save_params(str(path), random_fusion_params(80))
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(BundleError):
            load_params(str(path))

    def test_malformed_header_exits_1(self, tmp_path, capsys):
        for case, message in [
            ("zero-heads", "zero attention heads"),
            ("zero-width-huge-depth", "zero model width"),
        ]:
            path = tmp_path / "params.bin"
            save_params(str(path), random_fusion_params(80))
            path.write_bytes(MALFORMED_HEADERS[case](path.read_bytes()))
            assert main(["fuse-check", "--params", str(path)]) == 1
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("dims", [(4, 0, 8, 8), (4, 3, 0, 8)], ids=["no-channels", "no-rows"])
    def test_empty_feature_map_rejected(self, tmp_path, capsys, dims):
        path = tmp_path / "params.bin"
        write_one_scale_bundle(path, (4, 3, 8, 8))
        assert len(load_params(str(path))) == 1  # the writer makes consistent bundles
        write_one_scale_bundle(path, dims)
        with pytest.raises(BundleError, match="empty feature map"):
            load_params(str(path))
        assert main(["fuse-check", "--params", str(path)]) == 1
        assert "empty feature map" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda scales: scales[0].w_patch.fill(math.nan),
            lambda scales: np.put(scales[1].layers[0].w_out, 3, math.inf),
        ],
        ids=["nan-w-patch", "inf-w-out"],
    )
    def test_non_finite_bundle_rejected(self, tmp_path, capsys, corrupt):
        path = tmp_path / "params.bin"
        scales = random_fusion_params(0)
        corrupt(scales)
        save_params(str(path), scales)
        with pytest.raises(BundleError, match="NaN or infinite"):
            load_params(str(path))
        assert main(["fuse-check", "--params", str(path)]) == 1
        assert f"{path}: bundle holds a NaN or infinite value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda data: b"NOPE" + data[4:],
            lambda data: data[: len(data) // 2],
            lambda data: data + bytes(8),
        ],
        ids=["bad-magic", "truncated", "trailing-bytes"],
    )
    def test_bundle_error_names_the_bundle(self, tmp_path, capsys, corrupt):
        path = tmp_path / "params.bin"
        save_params(str(path), random_fusion_params(0))
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(BundleError) as error:
            load_params(str(path))
        assert str(error.value).startswith(f"{path}: ")
        assert main(["fuse-check", "--params", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("dims", [(4, 0, 16, 16), (4, 3, 0, 16), (4, 3, 16, 0)])
    def test_params_with_empty_feature_map_rejected(self, dims):
        with pytest.raises(ShapeError, match="empty feature map"):
            random_fusion_params(0, scale_shapes=(dims,))

    @pytest.mark.parametrize(
        "kwargs", [dict(n_heads=2), dict(mlp_hidden=32)], ids=["heads", "mlp-width"]
    )
    def test_mixed_layer_dims_rejected(self, tmp_path, kwargs):
        path = tmp_path / "params.bin"
        mixed_scales = random_fusion_params(0)[:1] + random_fusion_params(1, **kwargs)[1:2]
        with pytest.raises(ValidationError, match="head count"):
            save_params(str(path), mixed_scales)
        first = random_fusion_params(0)[0]
        other = random_fusion_params(1, **kwargs)[0]
        first.layers[1] = other.layers[1]
        with pytest.raises(ValidationError, match="head count"):
            save_params(str(path), [first])
        assert not path.exists()
